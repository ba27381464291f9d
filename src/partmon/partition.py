"""Split person detections and ground truth into TP/FP/FN sets at IoU tau.

The default matching is existential and many-to-many: a detection is a true
positive as soon as any ground-truth person exceeds the IoU threshold, and a
single ground-truth box may validate several detections. The greedy mode
(score-descending, highest-IoU-first, each ground-truth box consumed once)
exists for comparison with the usual benchmark convention and is off by
default.

``_matches`` is the one place where the match rule is written; ``matches``,
``partition`` and the confidence-threshold sweep all reach it. It takes the
ground truth as ``geometry.overlap_pairs`` box tuples and computes IoU only
for boxes that overlap: a disjoint pair has IoU 0, never above tau > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .datamodel import Detection, GtAnnotation
from .errors import check_open_unit
from .geometry import overlap_pairs


class MatchingMode(Enum):
    EXISTENTIAL = "existential"
    GREEDY = "greedy"


@dataclass(frozen=True)
class GtPartition:
    """Ground-truth-derived detection sets for one image at threshold tau.

    tp_gt and fp_gt partition the input person detections; fn_gt is the
    subset of ground-truth persons no detection matched.
    """

    tp_gt: tuple[Detection, ...]
    fp_gt: tuple[Detection, ...]
    fn_gt: tuple[GtAnnotation, ...]
    tau: float


def matches(
    persons: Sequence[Detection],
    gt_persons: Sequence[GtAnnotation],
    tau: float,
    matching: MatchingMode = MatchingMode.EXISTENTIAL,
) -> list[tuple[int, int]]:
    """Return the (detection index, ground-truth index) pairs matched at IoU > tau.

    Existential matching returns every pair whose IoU exceeds tau. Greedy
    matching visits detections by descending score, ties in input order;
    each takes the unconsumed ground-truth box of highest IoU above tau, the
    first one on equal IoU, so every ground-truth box appears at most once.
    The inequality is strict: IoU exactly equal to tau never matches.
    """
    check_open_unit("tau", tau)
    boxes = [(b.x, b.y, b.x + b.w, b.y + b.h, b.w * b.h, j) for j, gt in enumerate(gt_persons) for b in (gt.box,)]
    return _matches(persons, boxes, tau, matching)


def _matches(persons: Sequence[Detection], boxes: list, tau: float, matching: MatchingMode) -> list[tuple[int, int]]:
    """``matches`` on ground-truth box j given as ``(x1, y1, x2, y2, area, j)``, with tau already checked."""
    above, ious = [], []  # the pairs with IoU > tau, by detection and then ground truth, and their IoUs
    for i, j, inter, gt_area in overlap_pairs(persons, boxes):
        a = persons[i].box
        union = a.w * a.h + gt_area - inter  # geometry.iou's operands in its order; it gives 0.0 where union <= 0
        if union > 0 and (value := inter / union) > tau:
            above.append((i, j))
            ious.append(value)
    if matching is MatchingMode.EXISTENTIAL:
        return above
    # Detections by descending score, ties in input order, and each one's pairs by descending
    # IoU, ties in ground-truth order: a detection takes the first ground-truth box still free.
    order = sorted(range(len(above)), key=lambda k: (-persons[above[k][0]].score, above[k][0], -ious[k]))
    done, consumed, pairs = set(), set(), []
    for i, j in (above[k] for k in order):
        if i not in done and j not in consumed:
            done.add(i), consumed.add(j)
            pairs.append((i, j))
    return pairs


def partition(
    persons: Sequence[Detection],
    gt_persons: Sequence[GtAnnotation],
    tau: float,
    matching: MatchingMode = MatchingMode.EXISTENTIAL,
) -> GtPartition:
    """Classify detections as TP/FP and ground truth as FN at IoU > tau.

    A detection is a TP iff it takes part in some matched pair, and a
    ground-truth box is FN iff it takes part in none.
    """
    pairs = matches(persons, gt_persons, tau, matching)
    matched = {i for i, _ in pairs}
    covered = {j for _, j in pairs}
    return GtPartition(
        tuple([d for i, d in enumerate(persons) if i in matched]),
        tuple([d for i, d in enumerate(persons) if i not in matched]),
        tuple([g for j, g in enumerate(gt_persons) if j not in covered]),
        tau,
    )
