"""Output-correctness gate: the CLI's outputs against the brute-force oracle.

Each ``check_*`` returns a list of problems, empty when the output is right.
The runner calls them outside every timed region and counts each CLI
invocation whose output failed a check as a failed operation.

``partmon.oracle`` has no greedy matching, so for ``--matching greedy`` the
ground-truth partition comes from ``greedy_partition`` below, written as
literally as the oracle's own functions.
"""

from __future__ import annotations

import contextlib
import json

import partmon.oracle
from partmon.calibration import alpha_grid
from partmon.oracle import oracle_mcc, oracle_metrics, oracle_partition, oracle_per_image, oracle_per_object
from partmon.partition import GtPartition, MatchingMode


def greedy_partition(persons, gt_persons, tau) -> GtPartition:
    """Score-descending (stable), each detection takes the free GT box of highest IoU above tau."""
    consumed = [False] * len(gt_persons)
    matched = [False] * len(persons)
    for i in sorted(range(len(persons)), key=lambda k: -persons[k].score):
        a = persons[i].box
        best_j, best_iou = -1, tau
        for j, gt in enumerate(gt_persons):
            b = gt.box
            iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
            ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
            inter = iw * ih if iw > 0 and ih > 0 else 0.0
            union = a.w * a.h + b.w * b.h - inter
            value = inter / union if union > 0 else 0.0
            if not consumed[j] and value > best_iou:
                best_j, best_iou = j, value
        if best_j >= 0:
            matched[i] = consumed[best_j] = True
    return GtPartition(
        tp_gt=tuple(d for d, m in zip(persons, matched) if m),
        fp_gt=tuple(d for d, m in zip(persons, matched) if not m),
        fn_gt=tuple(g for g, c in zip(gt_persons, consumed) if not c),
        tau=tau,
    )


def _partitioner(matching: MatchingMode):
    return greedy_partition if matching is MatchingMode.GREEDY else oracle_partition


@contextlib.contextmanager
def _oracle_partition(matching: MatchingMode):
    original = partmon.oracle.oracle_partition
    partmon.oracle.oracle_partition = _partitioner(matching)
    try:
        yield
    finally:
        partmon.oracle.oracle_partition = original


def parse_validate(stdout: str) -> dict:
    """The counts ``partmon validate`` prints, or an empty dict when it did not end with ``ok``."""
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "ok":
        return {}
    counts = {}
    for line in lines[:-1]:
        head, _, rest = line.partition(": ")
        numbers = [int(word) for word in rest.replace(",", " ").split() if word.isdigit()]
        if head == "gt" and len(numbers) == 2:
            counts["images"], counts["annotations"] = numbers
        elif head in ("persons", "parts") and len(numbers) == 1:
            counts[head] = numbers[0]
    return counts


def check_validate(stdout: str, expected: dict) -> list[str]:
    got = parse_validate(stdout)
    return [] if got == expected else [f"validate printed {got}, expected {expected}"]


def _counts(block: dict) -> dict:
    return {key: block[key] for key in ("tp", "fp", "fn", "tn")}


def check_evaluate(report_image: dict, report_object: dict, scenes, op: dict,
                   matching: MatchingMode) -> dict[str, list[str]]:
    """Both ``evaluate`` reports against ``oracle_metrics`` on the thresholded scenes."""
    with _oracle_partition(matching):
        fp_alert, fn_alert, confusion, bal = oracle_metrics(scenes, op["tau"], op["alpha_fp"], op["alpha_fn"])
    problems: dict[str, list[str]] = {"evaluate_image": [], "evaluate_object": []}
    expected_image = {"total_images": len(scenes), "fp_alert": vars(fp_alert), "fn_alert": vars(fn_alert)}
    try:
        got_image = {"total_images": report_image["total_images"],
                     "fp_alert": _counts(report_image["fp_alert"]),
                     "fn_alert": _counts(report_image["fn_alert"])}
    except (KeyError, TypeError) as exc:
        got_image = f"unreadable report: {exc!r}"
    if got_image != expected_image:
        problems["evaluate_image"].append(f"per-image report {got_image} != oracle {expected_image}")
    expected_object = {"confusion": vars(confusion), "balances": vars(bal)}
    got_object = {key: report_object.get(key) for key in expected_object}
    if got_object != expected_object:
        problems["evaluate_object"].append(f"per-object report {got_object} != oracle {expected_object}")
    return problems


def _record(det) -> dict:
    return {"det_id": det.det_id, "category": det.category.value,
            "bbox": [det.box.x, det.box.y, det.box.w, det.box.h], "score": det.score}


def expected_monitor_lines(scenes, op: dict, mode: str) -> list[dict]:
    lines = []
    for s in scenes:
        if mode == "image":
            a = oracle_per_image(s.persons, s.parts, op["alpha_fp"], op["alpha_fn"])
            lines.append({"image_id": s.image_id, "alert_fp": a.alert_fp, "alert_fn": a.alert_fn})
        else:
            v = oracle_per_object(s.persons, s.parts, op["alpha_fp"], op["alpha_fn"])
            lines.append({"image_id": s.image_id, "tp_mon": [_record(d) for d in v.tp_mon],
                          "fp_mon": [_record(d) for d in v.fp_mon], "fn_mon": [_record(d) for d in v.fn_mon]})
    return lines


def check_monitor(text: str, scenes, op: dict, mode: str) -> list[str]:
    """Each JSONL line against ``oracle_per_image`` / ``oracle_per_object`` on its scene."""
    expected = expected_monitor_lines(scenes, op, mode)
    lines = text.splitlines()
    if len(lines) != len(expected):
        return [f"monitor {mode}: {len(lines)} lines for {len(expected)} scenes"]
    problems = []
    for number, (line, want) in enumerate(zip(lines, expected), 1):
        try:
            got = json.loads(line)
        except json.JSONDecodeError as exc:
            got = f"unparsable: {exc}"
        if got != want:
            problems.append(f"monitor {mode} line {number}: {line[:200]} != oracle {want}")
    return problems


def alert_flips(rule, scene, grid) -> list[tuple[bool, int]]:
    """Per alert type, (alert at grid[0], first grid index where it differs, or len(grid)).

    Both alerts are monotone in alpha (acceptance criterion C6), so each
    flips at most once along the grid and bisection with ``rule`` finds where.
    """
    def alerts(k):
        a = rule(scene.persons, scene.parts, grid[k], grid[k])
        return a.alert_fp, a.alert_fn

    first, last = alerts(0), alerts(len(grid) - 1)
    flips = []
    for kind in (0, 1):
        if first[kind] == last[kind]:
            flips.append((first[kind], len(grid)))
            continue
        lo, hi = 0, len(grid) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if alerts(mid)[kind] == first[kind]:
                lo = mid
            else:
                hi = mid
        flips.append((first[kind], hi))
    return flips


def oracle_alphas(scenes, tau: float, matching: MatchingMode, step: float) -> tuple[float, float]:
    """MCC argmax over ``alpha_grid(step)``, ties to the smaller alpha, all by the oracle."""
    part = _partitioner(matching)
    grid = alpha_grid(step)
    cells = [[[0, 0, 0, 0] for _ in grid] for _ in range(2)]  # [alert][grid index] -> tp, fp, fn, tn
    for s in scenes:
        p = part(s.persons, s.gt_persons(), tau)
        labels = (len(p.fp_gt) >= 1, len(p.fn_gt) >= 1)
        for kind, (first, flip) in enumerate(alert_flips(oracle_per_image, s, grid)):
            for k in range(len(grid)):
                predicted = first if k < flip else not first
                cells[kind][k][(not predicted) * 2 + (not labels[kind])] += 1
    best = []
    for kind in range(2):
        mccs = [oracle_mcc(*c) for c in cells[kind]]
        best.append(grid[mccs.index(max(mccs))])
    return best[0], best[1]


def check_alphas(op: dict, scenes, matching: MatchingMode, step: float) -> list[str]:
    want = oracle_alphas(scenes, op["tau"], matching, step)
    got = (op["alpha_fp"], op["alpha_fn"])
    return [] if got == want else [f"calibrated alphas {got} != oracle argmax {want}"]
