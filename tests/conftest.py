"""Shared test helpers: box/record builders and hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from partmon.datamodel import Detection, DetectionClass, GtAnnotation
from partmon.geometry import Box

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

