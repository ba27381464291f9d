"""Shared test helpers: box/record builders and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from partmon.calibration import alpha_grid
from partmon.datamodel import Detection, DetectionClass, GtAnnotation
from partmon.evaluation import binary_metrics, per_image_counts
from partmon.geometry import Box
from partmon.monitor import per_image_rule

# Integer-valued coordinates keep all box arithmetic exact in floats, so
# equality-based invariants can be asserted without tolerances.
int_coords = st.integers(-200, 200).map(float)
int_sizes = st.integers(0, 120).map(float)
pos_sizes = st.integers(1, 120).map(float)

boxes = st.builds(Box, int_coords, int_coords, int_sizes, int_sizes)
pos_boxes = st.builds(Box, int_coords, int_coords, pos_sizes, pos_sizes)

real_coords = st.floats(-200.0, 200.0, allow_nan=False, allow_infinity=False)
real_sizes = st.floats(0.5, 120.0, allow_nan=False, allow_infinity=False)
real_boxes = st.builds(Box, real_coords, real_coords, real_sizes, real_sizes)


def det(box: Box, image_id: int = 1, category: DetectionClass = DetectionClass.PERSON,
        score: float = 0.9, det_id: int | None = None) -> Detection:
    return Detection(image_id=image_id, category=category, box=box, score=score, det_id=det_id)


def part_det(box: Box, image_id: int = 1, category: DetectionClass = DetectionClass.TORSO,
             score: float = 0.9, det_id: int | None = None) -> Detection:
    return Detection(image_id=image_id, category=category, box=box, score=score, det_id=det_id)


def ann(box: Box, image_id: int = 1, category: DetectionClass = DetectionClass.PERSON,
        ann_id: int | None = None) -> GtAnnotation:
    return GtAnnotation(image_id=image_id, category=category, box=box, ann_id=ann_id)


def rule_argmax_alphas(scenes, partitions, step):
    """Literal grid argmax: ``per_image_rule`` on every scene at every grid point.

    Each alert's MCC is maximised on its own; ties keep the smaller alpha.
    """
    best = {}
    for alpha in alpha_grid(step):
        alerts = [per_image_rule(s.persons, s.parts, alpha, alpha) for s in scenes]
        for kind, counts in zip(("fp", "fn"), per_image_counts(scenes, partitions, alerts)):
            mcc = binary_metrics(counts)[2]
            if kind not in best or mcc > best[kind][1]:
                best[kind] = (alpha, mcc)
    return best["fp"][0], best["fn"][0]
