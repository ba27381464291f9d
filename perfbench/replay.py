"""In-process replay of each CLI command, with optional tracing.

A replay calls the same public ``partmon`` functions in the same order as
the command does in ``partmon.cli``, minus what only the CLI does (argument
parsing, manifests, writing outputs). ``build_operating_point`` is replayed
step by step so that the confidence sweep, the threshold filter, the
partition and the alpha sweep each get their own span. Every replay returns
the values the command writes (operating point, report counts, alerts and
verdict ids), so the runner can check that the replay has not drifted from
the CLI wiring.

With a ``Tracer``, each call into a layer is a span (name, start, end, parent
span, run id) kept in memory. Calls to ``partition`` are too many to span one
by one (the greedy confidence sweep re-partitions every image for every
candidate), so they are aggregated into call, pair and time counters
instead, including the calls made inside ``partmon.calibration``.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import partmon.calibration
from partmon.calibration import (
    OperatingPoint,
    apply_confidence_thresholds,
    select_alphas,
    select_confidence_threshold,
)
from partmon.datamodel import (
    FilterMode,
    filter_images_by_min_person_area,
    group_detections_only,
    group_into_scenes,
    load_category_map,
    load_detections,
    load_ground_truth,
)
from partmon.evaluation import (
    PerImageResult,
    PerObjectResult,
    balances,
    object_confusion,
    per_image_counts,
    render_report,
)
from partmon.monitor import per_image_rule, per_object_rule
from partmon.partition import MatchingMode, partition

MIN_AREA = 2247.0
GRID_STEP = 0.05
TAU = 0.5
COMMANDS = ("validate", "calibrate", "evaluate_image", "evaluate_object", "monitor_image", "monitor_object")


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's corpus plus the flags every command gets."""

    gt: str
    persons: str
    parts: str
    category_map: str
    op: str
    matching: MatchingMode
    threads: int


class NullTracer:
    """Tracing off: spans and counters cost one attribute lookup."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def add(self, name, value):
        pass

    def partition(self, persons, gts, tau, matching):
        return partition(persons, gts, tau, matching)

    @contextlib.contextmanager
    def patched(self):
        yield


class Tracer(NullTracer):
    """Records spans and counters in memory; ``dump`` returns them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def partition(self, persons, gts, tau, matching=MatchingMode.EXISTENTIAL):
        start = time.perf_counter_ns()
        result = partition(persons, gts, tau, matching)
        self.add("partition.total_ns", time.perf_counter_ns() - start)
        self.add("partition.calls", 1)
        self.add("partition.iou_pairs", len(persons) * len(gts))
        return result

    @contextlib.contextmanager
    def patched(self):
        """Route the partition calls made inside ``partmon.calibration`` through ``self.partition``."""
        original = partmon.calibration.partition
        partmon.calibration.partition = self.partition
        try:
            yield
        finally:
            partmon.calibration.partition = original

    def durations(self, command: str) -> dict[str, float]:
        """Seconds per span name below the top-level span ``command``, summed."""
        tops = {i for i, s in enumerate(self.spans) if s[0] == command and s[3] is None}
        out: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            while parent is not None and parent not in tops:
                parent = self.spans[parent][3]
            if parent is not None:
                out[name] = out.get(name, 0.0) + (end - start) / 1e9
        return out

    def dump(self) -> list[dict]:
        keys = ("name", "start_ns", "end_ns", "parent", "run_id")
        return [dict(zip(keys, s)) for s in self.spans]


def _map(fn, scenes, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, scenes))
    return [fn(s) for s in scenes]


def _load(t, inp: Inputs, with_gt: bool):
    with t.span("datamodel.load_category_map"):
        cmap = load_category_map(inp.category_map)
    gt = None
    if with_gt:
        with t.span("datamodel.load_gt"):
            gt = load_ground_truth(inp.gt, cmap)
    with t.span("datamodel.load_dets"):
        persons = load_detections(inp.persons, cmap)
    with t.span("datamodel.load_dets"):
        parts = load_detections(inp.parts, cmap)
    return gt, persons, parts


def gt_scenes(t, inp: Inputs):
    """Scenes with ground truth after the min-area filter, and the number of detections loaded."""
    gt, persons, parts = _load(t, inp, with_gt=True)
    with t.span("datamodel.filter"):
        retained = filter_images_by_min_person_area(gt, MIN_AREA, FilterMode.DROP_IF_ANY_BELOW)
    with t.span("datamodel.group"):
        scenes = list(group_into_scenes(gt, persons, parts, image_ids=retained).scenes)
    return scenes, len(persons) + len(parts)


def _load_op(t, inp: Inputs) -> OperatingPoint:
    with t.span("calibration.load_op"):
        return OperatingPoint.load(inp.op)


def replay_validate(t, inp: Inputs):
    gt, persons, parts = _load(t, inp, with_gt=True)
    t.add("datamodel.records", len(gt.annotations) + len(persons) + len(parts))
    return {"images": len(gt.images), "annotations": len(gt.annotations),
            "persons": len(persons), "parts": len(parts)}


def replay_calibrate(t, inp: Inputs):
    """``build_operating_point`` step by step, as the ``calibrate`` command calls it."""
    scenes, loaded = gt_scenes(t, inp)
    with t.span("calibration.conf_sweep"):
        dets_by_class, gts_by_class = {}, {}
        for scene in scenes:
            for det in list(scene.persons) + list(scene.parts):
                dets_by_class.setdefault(det.category, []).append(det)
            for ann in scene.gt:
                gts_by_class.setdefault(ann.category, []).append(ann)
        conf = {
            cls: select_confidence_threshold(dets_by_class[cls], gts_by_class.get(cls, []), TAU,
                                             matching=inp.matching)
            for cls in sorted(dets_by_class, key=lambda c: c.value)
        }
    with t.span("calibration.apply_conf"):
        filtered = apply_confidence_thresholds(scenes, conf)
    partitions = [t.partition(s.persons, s.gt_persons(), TAU, inp.matching) for s in filtered]
    with t.span("calibration.alpha_sweep"):
        alpha_fp, alpha_fn = select_alphas(filtered, partitions, GRID_STEP, threads=inp.threads)
    op = OperatingPoint(conf_thresholds=conf, alpha_fp=alpha_fp, alpha_fn=alpha_fn, tau=TAU)
    t.add("datamodel.dets_loaded", loaded)
    t.add("datamodel.dets_kept", sum(len(s.persons) + len(s.parts) for s in scenes))
    t.add("calibration.dets_kept", sum(len(s.persons) + len(s.parts) for s in filtered))
    t.add("calibration.conf_candidates", sum(
        len({d.score for d in dets} | {0.0, math.nextafter(max(d.score for d in dets), math.inf)})
        for dets in dets_by_class.values()
    ))
    return op.to_json_dict()


def replay_evaluate(t, inp: Inputs, protocol: str):
    op = _load_op(t, inp)
    scenes, _ = gt_scenes(t, inp)
    with t.span("calibration.apply_conf"):
        scenes = apply_confidence_thresholds(scenes, op.conf_thresholds)
    partitions = [t.partition(s.persons, s.gt_persons(), op.tau, inp.matching) for s in scenes]
    if protocol == "image":
        with t.span("monitor.per_image"):
            alerts = _map(lambda s: per_image_rule(s.persons, s.parts, op.alpha_fp, op.alpha_fn),
                          scenes, inp.threads)
        with t.span("evaluation.per_image_counts"):
            fp_counts, fn_counts = per_image_counts(scenes, partitions, alerts)
        result = PerImageResult(system="monitor", total_images=len(scenes),
                                fp_alert=fp_counts, fn_alert=fn_counts)
    else:
        with t.span("monitor.per_object"):
            verdicts = _map(lambda s: per_object_rule(s.persons, s.parts, op.alpha_fp, op.alpha_fn),
                            scenes, inp.threads)
        with t.span("evaluation.object_confusion"):
            confusion = object_confusion(scenes, partitions, verdicts, op.alpha_fn)
        result = PerObjectResult(system="monitor", confusion=confusion, balances=balances(confusion))
    with t.span("evaluation.render"):
        text = render_report(result, "json")
    return json.loads(text)


def live_scenes(t, inp: Inputs):
    """The live-system input: detections grouped per image, no ground truth."""
    _, persons, parts = _load(t, inp, with_gt=False)
    with t.span("datamodel.group"):
        return list(group_detections_only(persons, parts))


def replay_monitor(t, inp: Inputs, mode: str):
    op = _load_op(t, inp)
    scenes = live_scenes(t, inp)
    with t.span("calibration.apply_conf"):
        scenes = apply_confidence_thresholds(scenes, op.conf_thresholds)
    if mode == "image":
        with t.span("monitor.per_image"):
            alerts = _map(lambda s: per_image_rule(s.persons, s.parts, op.alpha_fp, op.alpha_fn),
                          scenes, inp.threads)
        t.add("monitor.alert_fp_scenes", sum(a.alert_fp for a in alerts))
        t.add("monitor.alert_fn_scenes", sum(a.alert_fn for a in alerts))
        return [(s.image_id, a.alert_fp, a.alert_fn) for s, a in zip(scenes, alerts)]
    with t.span("monitor.per_object"):
        verdicts = _map(lambda s: per_object_rule(s.persons, s.parts, op.alpha_fp, op.alpha_fn),
                        scenes, inp.threads)
    t.add("monitor.overlap_pairs", sum(len(s.persons) * len(s.parts) for s in scenes))
    return [(s.image_id, *verdict_ids(v)) for s, v in zip(scenes, verdicts)]


def verdict_ids(v) -> tuple:
    """A per-object verdict as three tuples of detection ids."""
    return (tuple(d.det_id for d in v.tp_mon), tuple(d.det_id for d in v.fp_mon),
            tuple(d.det_id for d in v.fn_mon))


def replay(command: str, t, inp: Inputs):
    """Replay one command under a top-level span named after it; return what it outputs."""
    with t.span(command), t.patched():
        if command == "validate":
            return replay_validate(t, inp)
        if command == "calibrate":
            return replay_calibrate(t, inp)
        kind, mode = command.split("_")
        if kind == "evaluate":
            return replay_evaluate(t, inp, mode)
        return replay_monitor(t, inp, mode)
