"""Brute-force reference implementations of every decision rule and metric.

Everything here is written as the most literal possible nested loops with
inline box arithmetic, on purpose: these functions share no computation with
the production modules, so agreement between the two on randomized corpora
is meaningful evidence. Do not "optimize" or fold them into the production
code; slowness is the point.

``oracle_threshold`` and ``oracle_alphas`` are the brute-force references of
the two calibration choices: an F1 rescan over every candidate threshold, and
an MCC argmax over every point of the alpha grid.
"""

from __future__ import annotations

import math
from typing import Sequence

from .datamodel import Detection, DetectionClass, GtAnnotation, Scene
from .evaluation import Balances, BinaryCounts, ObjectConfusion
from .monitor import AlertPair, MonitorVerdict
from .partition import GtPartition, MatchingMode


def _inter(a, b) -> float:
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih


def _iou(a, b) -> float:
    inter = _inter(a, b)
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0:
        return 0.0
    return inter / union


def oracle_per_image(
    persons: Sequence[Detection],
    parts: Sequence[Detection],
    alpha_fp: float,
    alpha_fn: float,
) -> AlertPair:
    alert_fp = False
    for person in persons:
        below_for_all = True
        for part in parts:
            if _inter(person.box, part.box) >= alpha_fp * (part.box.w * part.box.h):
                below_for_all = False
        if below_for_all:
            alert_fp = True
    alert_fn = False
    for part in parts:
        below_for_all = True
        for person in persons:
            if _inter(person.box, part.box) >= alpha_fn * (part.box.w * part.box.h):
                below_for_all = False
        if below_for_all:
            alert_fn = True
    return AlertPair(alert_fp=alert_fp, alert_fn=alert_fn)


def oracle_per_object(
    persons: Sequence[Detection],
    parts: Sequence[Detection],
    alpha_fp: float,
    alpha_fn: float,
) -> MonitorVerdict:
    tp_mon, fp_mon, fn_mon = [], [], []
    for person in persons:
        has_support = False
        for part in parts:
            if _inter(person.box, part.box) >= alpha_fp * (part.box.w * part.box.h):
                has_support = True
        if has_support:
            tp_mon.append(person)
        else:
            fp_mon.append(person)
    for part in parts:
        orphaned = True
        for person in persons:
            if _inter(person.box, part.box) >= alpha_fn * (part.box.w * part.box.h):
                orphaned = False
        if orphaned:
            fn_mon.append(part)
    return MonitorVerdict(
        tp_mon=tuple(tp_mon),
        fp_mon=tuple(fp_mon),
        fn_mon=tuple(fn_mon),
    )


def oracle_partition(
    persons: Sequence[Detection],
    gt_persons: Sequence[GtAnnotation],
    tau: float,
) -> GtPartition:
    tp, fp, fn = [], [], []
    for det in persons:
        validated = False
        for gt in gt_persons:
            if _iou(det.box, gt.box) > tau:
                validated = True
        if validated:
            tp.append(det)
        else:
            fp.append(det)
    for gt in gt_persons:
        missed = True
        for det in persons:
            if _iou(det.box, gt.box) > tau:
                missed = False
        if missed:
            fn.append(gt)
    return GtPartition(tp_gt=tuple(tp), fp_gt=tuple(fp), fn_gt=tuple(fn), tau=tau)


def oracle_greedy_partition(
    persons: Sequence[Detection],
    gt_persons: Sequence[GtAnnotation],
    tau: float,
) -> GtPartition:
    """Greedy matching: the highest-scoring detection not yet visited (the first
    of equal scores) takes the free ground-truth person of highest IoU above
    tau (the first of equal IoUs), until every detection has been visited."""
    visited = [False] * len(persons)
    validated = [False] * len(persons)
    taken = [False] * len(gt_persons)
    for _ in range(len(persons)):
        pick = -1
        for i in range(len(persons)):
            if not visited[i] and (pick == -1 or persons[i].score > persons[pick].score):
                pick = i
        visited[pick] = True
        best, best_iou = -1, 0.0
        for j in range(len(gt_persons)):
            value = _iou(persons[pick].box, gt_persons[j].box)
            if not taken[j] and value > tau and (best == -1 or value > best_iou):
                best, best_iou = j, value
        if best != -1:
            taken[best] = True
            validated[pick] = True
    tp, fp, fn = [], [], []
    for i in range(len(persons)):
        if validated[i]:
            tp.append(persons[i])
        else:
            fp.append(persons[i])
    for j in range(len(gt_persons)):
        if not taken[j]:
            fn.append(gt_persons[j])
    return GtPartition(tp_gt=tuple(tp), fp_gt=tuple(fp), fn_gt=tuple(fn), tau=tau)


def oracle_metrics(
    scenes: Sequence[Scene],
    tau: float,
    alpha_fp: float,
    alpha_fn: float,
    ghost_all_classes: bool = False,
    matching: MatchingMode = MatchingMode.EXISTENTIAL,
) -> tuple[BinaryCounts, BinaryCounts, ObjectConfusion, Balances]:
    """Recount every table-style output of a corpus from scratch."""
    fp_tp = fp_fp = fp_fn = fp_tn = 0
    fn_tp = fn_fp = fn_fn = fn_tn = 0
    c_tptp = c_tpfp = c_fptp = c_fpfp = c_fnfn = c_tnfn = 0

    for scene in scenes:
        gt_persons = [a for a in scene.gt if a.category is DetectionClass.PERSON]
        if matching is MatchingMode.GREEDY:
            part = oracle_greedy_partition(scene.persons, gt_persons, tau)
        else:
            part = oracle_partition(scene.persons, gt_persons, tau)
        alert = oracle_per_image(scene.persons, scene.parts, alpha_fp, alpha_fn)
        verdict = oracle_per_object(scene.persons, scene.parts, alpha_fp, alpha_fn)

        has_fp = len(part.fp_gt) >= 1
        has_fn = len(part.fn_gt) >= 1
        if alert.alert_fp and has_fp:
            fp_tp += 1
        elif alert.alert_fp and not has_fp:
            fp_fp += 1
        elif not alert.alert_fp and has_fp:
            fp_fn += 1
        else:
            fp_tn += 1
        if alert.alert_fn and has_fn:
            fn_tp += 1
        elif alert.alert_fn and not has_fn:
            fn_fp += 1
        elif not alert.alert_fn and has_fn:
            fn_fn += 1
        else:
            fn_tn += 1

        for det in part.tp_gt:
            if any(det is v for v in verdict.tp_mon):
                c_tptp += 1
            if any(det is v for v in verdict.fp_mon):
                c_tpfp += 1
        for det in part.fp_gt:
            if any(det is v for v in verdict.tp_mon):
                c_fptp += 1
            if any(det is v for v in verdict.fp_mon):
                c_fpfp += 1
        for missed in part.fn_gt:
            found = False
            for orphan in verdict.fn_mon:
                if _inter(orphan.box, missed.box) >= alpha_fn * (orphan.box.w * orphan.box.h):
                    found = True
            if found:
                c_fnfn += 1
        anchors = scene.gt if ghost_all_classes else tuple(gt_persons)
        for orphan in verdict.fn_mon:
            ghost = True
            for ann in anchors:
                if _inter(ann.box, orphan.box) >= alpha_fn * (orphan.box.w * orphan.box.h):
                    ghost = False
            if ghost:
                c_tnfn += 1

    confusion = ObjectConfusion(
        tp_gt_tp_mon=c_tptp,
        tp_gt_fp_mon=c_tpfp,
        fp_gt_tp_mon=c_fptp,
        fp_gt_fp_mon=c_fpfp,
        fn_gt_fn_mon=c_fnfn,
        tn_gt_fn_mon=c_tnfn,
    )
    bal = Balances(
        fp_balance=confusion.fp_gt_fp_mon - confusion.tp_gt_fp_mon,
        fn_balance=confusion.fn_gt_fn_mon - confusion.tn_gt_fn_mon,
    )
    return (
        BinaryCounts(tp=fp_tp, fp=fp_fp, fn=fp_fn, tn=fp_tn),
        BinaryCounts(tp=fn_tp, fp=fn_fp, fn=fn_fn, tn=fn_tn),
        confusion,
        bal,
    )


def oracle_mcc(tp: int, fp: int, fn: int, tn: int) -> float:
    """Independently written MCC used to double-check sweep scoring."""
    d1, d2, d3, d4 = tp + fp, tp + fn, tn + fp, tn + fn
    if d1 == 0 or d2 == 0 or d3 == 0 or d4 == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(d1 * d2 * d3 * d4)


def oracle_threshold(
    dets: Sequence[Detection],
    gts: Sequence[GtAnnotation],
    tau: float,
    matching: MatchingMode = MatchingMode.EXISTENTIAL,
    strict: bool = False,
) -> float:
    """Best-F1 confidence threshold of one class with at least one detection.

    Every candidate (each distinct score, 0.0, and the next float above the
    top score) re-partitions each image's kept detections (score >= t, or
    score > t with ``strict``) from scratch. On equal F1 the higher threshold
    wins.
    """
    candidates = sorted({d.score for d in dets} | {0.0, math.nextafter(max(d.score for d in dets), math.inf)})
    best_t, best_f1 = None, -1.0
    for t in candidates:
        tp = fp = fn = 0
        for image_id in {r.image_id for r in [*dets, *gts]}:
            kept = [d for d in dets if d.image_id == image_id and (d.score > t if strict else d.score >= t)]
            image_gts = [g for g in gts if g.image_id == image_id]
            if matching is MatchingMode.GREEDY:
                part = oracle_greedy_partition(kept, image_gts, tau)
            else:
                part = oracle_partition(kept, image_gts, tau)
            tp += len(part.tp_gt)
            fp += len(part.fp_gt)
            fn += len(part.fn_gt)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        if f1 >= best_f1:
            best_t, best_f1 = t, f1
    return best_t


def oracle_alphas(scenes: Sequence[Scene], tau: float, matching: MatchingMode, step: float) -> tuple[float, float]:
    """(alpha_fp, alpha_fn) of maximal MCC over the grid {step, 2*step, ...} in (0, 1).

    Each scene is labelled by its oracle partition and alerted by
    ``oracle_per_image`` at every grid point; each alert's MCC is maximised
    on its own, and on equal MCC the smaller alpha wins.
    """
    grid = []
    k = 1
    while round(k * step, 10) < 1.0 - 1e-9:
        grid.append(round(k * step, 10))
        k += 1
    labels = []
    for scene in scenes:
        gt_persons = [a for a in scene.gt if a.category is DetectionClass.PERSON]
        if matching is MatchingMode.GREEDY:
            part = oracle_greedy_partition(scene.persons, gt_persons, tau)
        else:
            part = oracle_partition(scene.persons, gt_persons, tau)
        labels.append((len(part.fp_gt) >= 1, len(part.fn_gt) >= 1))
    best, best_mcc = [None, None], [-2.0, -2.0]  # every MCC is at least -1
    for alpha in grid:
        cells = [[0, 0, 0, 0], [0, 0, 0, 0]]  # per alert: tp, fp, fn, tn
        for scene, label in zip(scenes, labels):
            alert = oracle_per_image(scene.persons, scene.parts, alpha, alpha)
            for kind, predicted in enumerate((alert.alert_fp, alert.alert_fn)):
                if predicted and label[kind]:
                    cells[kind][0] += 1
                elif predicted:
                    cells[kind][1] += 1
                elif label[kind]:
                    cells[kind][2] += 1
                else:
                    cells[kind][3] += 1
        for kind in range(2):
            mcc = oracle_mcc(*cells[kind])
            if mcc > best_mcc[kind]:
                best[kind], best_mcc[kind] = alpha, mcc
    return best[0], best[1]
