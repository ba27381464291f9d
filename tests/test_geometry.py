from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from partmon.geometry import (
    Box,
    DegeneratePartBoxError,
    area,
    intersection_area,
    iou,
    overlap_pairs,
    part_overlap_at_least,
)

from conftest import boxes, pos_boxes, real_boxes


def test_area_known_values():
    assert area(Box(0, 0, 10, 10)) == 100
    assert area(Box(5, 5, 0, 7)) == 0
    assert area(Box(2, 3, 30, 30)) == 900


def test_box_rejects_negative_extent():
    with pytest.raises(ValueError):
        Box(0, 0, -1, 5)
    with pytest.raises(ValueError):
        Box(0, 0, 5, -0.5)


def test_intersection_identical_boxes():
    a = Box(0, 0, 10, 10)
    assert intersection_area(a, a) == 100


def test_intersection_disjoint():
    assert intersection_area(Box(0, 0, 10, 10), Box(20, 20, 5, 5)) == 0.0


def test_intersection_half_overlap():
    # Inclusion-exclusion by hand: overlap strip is 5 wide, 10 tall.
    assert intersection_area(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == 50


def test_iou_identity_disjoint_partial():
    a = Box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Box(20, 20, 5, 5)) == 0.0
    assert iou(a, Box(5, 0, 10, 10)) == pytest.approx(50 / 150)


def test_iou_of_two_degenerate_boxes_is_zero():
    assert iou(Box(0, 0, 0, 0), Box(1, 1, 0, 5)) == 0.0


def test_part_overlap_contained_and_disjoint():
    person = Box(0, 0, 100, 200)
    inside = Box(10, 10, 20, 20)
    for alpha in (0.05, 0.5, 0.95):
        assert part_overlap_at_least(person, inside, alpha)
        assert not part_overlap_at_least(person, Box(500, 500, 20, 20), alpha)


def test_part_overlap_boundary_is_inclusive():
    person = Box(0, 0, 10, 10)
    part = Box(5, 0, 10, 10)  # intersection 50, area 100
    assert part_overlap_at_least(person, part, 0.5)
    assert not part_overlap_at_least(person, part, 0.51)


def test_part_overlap_rejects_degenerate_part():
    with pytest.raises(DegeneratePartBoxError):
        part_overlap_at_least(Box(0, 0, 10, 10), Box(0, 0, 0, 10), 0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_part_overlap_rejects_alpha_outside_open_interval(alpha):
    with pytest.raises(ValueError):
        part_overlap_at_least(Box(0, 0, 10, 10), Box(0, 0, 5, 5), alpha)


@given(boxes, boxes)
def test_symmetry(a, b):
    assert intersection_area(a, b) == intersection_area(b, a)
    assert iou(a, b) == iou(b, a)


@given(real_boxes, real_boxes)
def test_symmetry_real_coordinates(a, b):
    assert intersection_area(a, b) == intersection_area(b, a)
    assert iou(a, b) == iou(b, a)


@given(boxes, boxes)
def test_bounds(a, b):
    inter = intersection_area(a, b)
    assert 0.0 <= inter <= min(area(a), area(b))
    assert 0.0 <= iou(a, b) <= 1.0


@given(pos_boxes, st.data())
def test_containment(outer, data):
    # Carve an inner box on the integer grid of the outer one.
    dx = data.draw(st.integers(0, int(outer.w) - 1))
    dy = data.draw(st.integers(0, int(outer.h) - 1))
    w = data.draw(st.integers(1, int(outer.w) - dx))
    h = data.draw(st.integers(1, int(outer.h) - dy))
    inner = Box(outer.x + dx, outer.y + dy, float(w), float(h))
    assert intersection_area(outer, inner) == area(inner)
    for alpha in (0.05, 0.35, 0.65, 0.95):
        assert part_overlap_at_least(outer, inner, alpha)


@given(boxes, boxes, st.integers(-50, 50), st.integers(-50, 50))
def test_translation_invariance(a, b, dx, dy):
    a2 = Box(a.x + dx, a.y + dy, a.w, a.h)
    b2 = Box(b.x + dx, b.y + dy, b.w, b.h)
    assert intersection_area(a, b) == intersection_area(a2, b2)
    assert iou(a, b) == iou(a2, b2)


def test_edge_touching_boxes_have_zero_intersection():
    a = Box(0, 0, 10, 10)
    assert intersection_area(a, Box(10, 0, 10, 10)) == 0.0
    assert intersection_area(a, Box(0, 10, 10, 10)) == 0.0
    assert intersection_area(a, Box(10, 10, 5, 5)) == 0.0  # corner contact


# Edges from a small pool touch often. At 1e16 the float spacing is 2, so a
# width of 1.0 collapses the far edge onto the near one (x + w == x); the
# subnormal widths collapse everywhere but at 0.0.
_kernel_edges = st.sampled_from([-1e16, -2.5, -1.0, 0.0, 1.0, 2.5, 1e16]) | st.floats(-1e3, 1e3)
_kernel_extents = st.sampled_from([0.0, 5e-324, 1e-310, 1.0, 1.5, 3.5]) | st.floats(0.0, 1e3)
_kernel_boxes = st.lists(st.builds(Box, _kernel_edges, _kernel_edges, _kernel_extents, _kernel_extents), max_size=5)


@given(_kernel_boxes, _kernel_boxes)
@example([Box(1e16 - 4, 0.0, 8.0, 1.0)], [Box(1e16, 0.0, 1.0, 1.0)])  # collapsed far edge inside a box
@example([Box(1.0, 0.0, 3.5, 1.0)], [Box(2.5, 0.0, 5e-324, 1.0)])  # subnormal width that collapses
@example([Box(-1.0, -1.0, 2.5, 2.5)], [Box(0.0, 0.0, 5e-324, 1.0)])  # subnormal width that stays
@example([Box(-2.5, -1.0, 1.5, 1.0)], [Box(-1.0, -1.0, 1.0, 1.0), Box(-2.5, 0.0, 1.5, 1.0)])  # touching edges
@example([Box(-2.5, 0.0, 3.5, 5e-324)], [Box(0.0, 0.0, 5e-324, 5e-324)])  # positive extents, product 0.0
def test_overlap_pairs_is_the_brute_force_enumeration(records, others):
    """The same pairs, in the same (i, j) order, with intersection_area's value.

    A pair is reported when both extents are positive, even where their product rounds to 0.0.
    So each axis is tested alone: by intersection_area on a strip of height 1, where it is the width.
    """
    def axis_overlaps(p, pw, q, qw):
        return intersection_area(Box(p, 0.0, pw, 1.0), Box(q, 0.0, qw, 1.0)) > 0

    tuples = [(b.x, b.y, b.x + b.w, b.y + b.h, area(b), j) for j, b in enumerate(others)]
    expected = [(i, j, intersection_area(a, b), area(b))
                for i, a in enumerate(records) for j, b in enumerate(others)
                if axis_overlaps(a.x, a.w, b.x, b.w) and axis_overlaps(a.y, a.h, b.y, b.h)]
    assert overlap_pairs([SimpleNamespace(box=a) for a in records], tuples) == expected
