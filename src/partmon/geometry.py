"""Axis-aligned box arithmetic: area, intersection, IoU, person/part overlap.

Boxes use the COCO (x, y, w, h) convention with x/y the top-left corner.
Coordinates are real-valued; detector outputs are continuous. All comparisons
are exact (no epsilon slack) so results are deterministic and boundary cases
land on the side the decision rules prescribe.

``overlap_pairs`` is the one enumerator of overlapping box pairs, for the
monitor, the alpha sweep and IoU matching alike. ``intersection_area``,
``iou`` and ``part_overlap_at_least`` are public one-pair helpers that no
hot path calls.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Sequence

from .errors import ValidationError, check_open_unit


class DegeneratePartBoxError(ValidationError):
    """A body-part box with zero area cannot anchor an overlap test."""


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record(cls):
    """A frozen, slotted dataclass that refuses every assignment and deletion with FrozenInstanceError. On CPython
    3.10-3.13 the generated methods name the class that ``slots=True`` replaced: a non-field name raised TypeError.
    Trusted builders fill a ``_draft`` and set its ``__class__``, which CPython allows only between equal layouts."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
    return cls


def _draft(record):
    """A class with exactly ``record``'s slots and no checks: fill one, then set its ``__class__`` to ``record``."""
    return type(f"{record.__name__}Draft", (), {"__slots__": record.__slots__})


@_record
class Box:
    """Axis-aligned rectangle in pixel coordinates (left, top, width, height)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValidationError(f"box width/height must be non-negative, got w={self.w}, h={self.h}")


def area(b: Box) -> float:
    """Area of the box in pixels^2."""
    return b.w * b.h


def overlap_pairs(records: Sequence, boxes: Sequence[tuple]) -> list[tuple[int, int, float, float]]:
    """``(i, j, intersection, area_b)`` for each records[i].box overlapping box j, given as ``(x1, y1, x2, y2, area_b, j)``.

    Both extents are positive, and the intersection is bit for bit
    ``intersection_area(records[i].box, box_j)``: the same float operations in the same order.
    A pair is skipped unless ``bx1 < ax2 and bx2 > ax1``. That is exact: otherwise min(ax2, bx2) <= max(ax1, bx1),
    so the width is <= 0. The width test stays: a far edge that collapses (x + w == x) gives width 0 past it.
    """
    pairs = []
    for i, record in enumerate(records):
        a = record.box
        ax1, ay1, ax2, ay2 = a.x, a.y, a.x + a.w, a.y + a.h
        # min(ax2, bx2) - max(ax1, bx1), as in intersection_area: min(p, q) keeps p
        # unless q < p, and max(p, q) keeps p unless q > p.
        for bx1, by1, bx2, by2, area_b, j in boxes:
            if bx1 < ax2 and bx2 > ax1:
                iw = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
                if iw > 0:
                    ih = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
                    if ih > 0:
                        pairs.append((i, j, iw * ih, area_b))
    return pairs


def intersection_area(a: Box, b: Box) -> float:
    """Area of the rectangular overlap of two boxes; 0 when disjoint.

    Boxes sharing only an edge or a corner have zero overlap area.
    """
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Two zero-area boxes have IoU 0 by convention: the union is empty, and
    such boxes can never match anything.
    """
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    if union <= 0:
        return 0.0
    return inter / union


def part_overlap_at_least(person: Box, part: Box, alpha: float) -> bool:
    """True iff the person box covers at least ``alpha`` of the part box area.

    This is the association test between a person detection and a body-part
    detection: the part belongs to the person when their intersection is at
    least alpha times the part's own area.

    Raises DegeneratePartBoxError for a zero-area part and ValidationError for an
    alpha outside the open interval (0, 1).
    """
    check_open_unit("alpha", alpha)
    part_area = area(part)
    if part_area <= 0:
        raise DegeneratePartBoxError(f"degenerate part box: {part}")
    return intersection_area(person, part) >= alpha * part_area
