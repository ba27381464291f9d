"""Offline evaluation: per-image binary metrics and per-object confusion.

Per-image mode scores the monitor as two binary classifiers (one per alert
type) over the evaluated images. Per-object mode intersects the monitor's
detection sets with the ground-truth-derived sets and reduces the result to
six confusion cells plus the two usefulness balances.

Detection identity across the gt- and monitor-derived sets is object
identity of the shared input records, never box equality, so duplicate boxes
cannot alias each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, fields
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Sequence

from .calibration import mcc_from_counts
from .datamodel import Scene, json_text
from .errors import ValidationError, check_open_unit
from .monitor import AlertPair, MonitorVerdict, masks
from .partition import GtPartition


@dataclass(frozen=True)
class BinaryCounts:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class ObjectConfusion:
    """The six per-object cells.

    Cell names read <ground-truth set>_<monitor set>: e.g. tp_gt_fp_mon is a
    correct detection the monitor wrongly discarded, tn_gt_fn_mon a ghost
    body part matching no ground truth.
    """

    tp_gt_tp_mon: int
    tp_gt_fp_mon: int
    fp_gt_tp_mon: int
    fp_gt_fp_mon: int
    fn_gt_fn_mon: int
    tn_gt_fn_mon: int


@dataclass(frozen=True)
class Balances:
    """Detected errors minus harm done; positive means the monitor helps."""

    fp_balance: int
    fn_balance: int


def binary_metrics(c: BinaryCounts) -> tuple[float, float, float]:
    """(precision, recall, mcc) with the degenerate-denominator-is-0 convention."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    return precision, recall, mcc_from_counts(c.tp, c.fp, c.fn, c.tn)


def per_image_counts(
    scenes: Sequence[Scene],
    partitions: Sequence[GtPartition],
    alerts: Sequence[AlertPair],
) -> tuple[BinaryCounts, BinaryCounts]:
    """Tally both alert types against the ground-truth image labels.

    An image is a positive for the FP problem iff its partition contains at
    least one ghost detection (|fp_gt| >= 1), and for the FN problem iff it
    contains at least one missed person (|fn_gt| >= 1).
    """
    if not (len(scenes) == len(partitions) == len(alerts)):
        raise ValidationError(f"mismatched inputs: {len(scenes)} scenes, {len(partitions)} partitions, "
                              f"{len(alerts)} alerts")
    fp_cells = Counter((len(p.fp_gt) >= 1, bool(a.alert_fp)) for p, a in zip(partitions, alerts))
    fn_cells = Counter((len(p.fn_gt) >= 1, bool(a.alert_fn)) for p, a in zip(partitions, alerts))
    return _binary_counts(fp_cells), _binary_counts(fn_cells)


def _binary_counts(cells: Counter) -> BinaryCounts:
    """Read the four cells off a Counter of (label, predicted) pairs."""
    return BinaryCounts(
        tp=cells[True, True], fp=cells[False, True], fn=cells[True, False], tn=cells[False, False]
    )


def object_confusion(
    scenes: Sequence[Scene],
    partitions: Sequence[GtPartition],
    verdicts: Sequence[MonitorVerdict],
    alpha_fn: float,
    ghost_all_classes: bool = False,
) -> ObjectConfusion:
    """Cross the monitor's sets with the ground-truth-derived sets.

    The four detection cells intersect by object identity. A missed person
    counts as detected iff some orphan part overlaps it by at least
    alpha_fn times the part's area; an orphan part is a ghost iff it fails
    that same test against every ground-truth annotation. By default only
    person annotations anchor the ghost test; ``ghost_all_classes`` widens it
    to the full annotation set (e.g. when part ground truth exists).
    """
    check_open_unit("alpha_fn", alpha_fn)
    if not (len(scenes) == len(partitions) == len(verdicts)):
        raise ValidationError(f"mismatched inputs: {len(scenes)} scenes, {len(partitions)} partitions, "
                              f"{len(verdicts)} verdicts")
    cells = dict.fromkeys((f.name for f in fields(ObjectConfusion)), 0)
    for scene, part, verdict in zip(scenes, partitions, verdicts):
        n_gt = len(part.tp_gt) + len(part.fp_gt)
        n_mon = len(verdict.tp_mon) + len(verdict.fp_mon)
        if n_gt != n_mon:
            raise ValidationError(
                f"image {scene.image_id}: partition covers {n_gt} person detections "
                f"but verdict covers {n_mon}; inputs must share the same detections"
            )
        # Both pairs split the same detections (the guard above): what tp_mon keeps of each gt set decides all four.
        tp_mon = set(map(id, verdict.tp_mon))
        kept_tp = len(tp_mon.intersection(map(id, part.tp_gt)))
        kept_fp = len(tp_mon.intersection(map(id, part.fp_gt)))
        cells["tp_gt_tp_mon"] += kept_tp
        cells["tp_gt_fp_mon"] += len(part.tp_gt) - kept_tp
        cells["fp_gt_tp_mon"] += kept_fp
        cells["fp_gt_fp_mon"] += len(part.fp_gt) - kept_fp

        found, _ = masks(part.fn_gt, verdict.fn_mon, alpha_fn, alpha_fn)
        cells["fn_gt_fn_mon"] += found.count(True)
        anchors = scene.gt if ghost_all_classes else scene.gt_persons()
        _, anchored = masks(anchors, verdict.fn_mon, alpha_fn, alpha_fn)
        cells["tn_gt_fn_mon"] += anchored.count(False)
    return ObjectConfusion(**cells)


def balances(c: ObjectConfusion) -> Balances:
    """Detected ghosts minus discarded good detections; detected misses minus ghost parts."""
    return Balances(
        fp_balance=c.fp_gt_fp_mon - c.tp_gt_fp_mon,
        fn_balance=c.fn_gt_fn_mon - c.tn_gt_fn_mon,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerImageResult:
    system: str
    total_images: int
    fp_alert: BinaryCounts
    fn_alert: BinaryCounts


@dataclass(frozen=True)
class PerObjectResult:
    system: str
    confusion: ObjectConfusion
    balances: Balances


def _ratio_str(value: float) -> str:
    """Round to 4 decimal places, half-even (report formatting convention)."""
    return str(Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


_RATIOS = ("precision", "recall", "mcc")


def _report(result: PerImageResult | PerObjectResult, manifest: dict | None) -> tuple[dict, list[list]]:
    """Lay a result out once: its JSON object, and its CSV rows with the header row first."""
    if isinstance(result, PerImageResult):
        report = {"system": result.system, "total_images": result.total_images}
        rows = [["system", "alert", *(f.name for f in fields(BinaryCounts)), *_RATIOS]]
        for alert, counts in (("fp", result.fp_alert), ("fn", result.fn_alert)):
            cells, ratios = asdict(counts), [_ratio_str(r) for r in binary_metrics(counts)]
            report[f"{alert}_alert"] = cells | {name: float(r) for name, r in zip(_RATIOS, ratios)}
            rows.append([result.system, alert, *cells.values(), *ratios])
    else:
        report = {"system": result.system, "confusion": asdict(result.confusion),
                  "balances": asdict(result.balances)}
        cells = report["confusion"] | report["balances"]
        rows = [["system", *cells], [result.system, *cells.values()]]
    if manifest is not None:
        report["manifest"] = manifest
    return report, rows


def render_report(result: PerImageResult | PerObjectResult, fmt: str, manifest: dict | None = None) -> str:
    """Render a result to deterministic JSON or CSV text."""
    report, rows = _report(result, manifest)
    if fmt == "json":
        return json_text(report)
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    raise ValidationError(f"unknown report format: {fmt!r} (expected 'json' or 'csv')")

