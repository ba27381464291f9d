"""The per-scene overlap kernel against the brute-force oracle, bit for bit.

The other oracle tests use integer coordinates, where every box sum and
product is exact, so a change in the order of the kernel's float operations
would go unseen there. These scenes have real-valued boxes, plus parts so
thin that ``alpha * part_area`` underflows to 0.0: the overlap test then
passes with no overlap at all (0.0 >= 0.0), and the kernel has to say so as
the oracle does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmon.calibration import alpha_grid, select_alphas
from partmon.datamodel import DetectionClass, Scene
from partmon.evaluation import object_confusion, per_image_counts
from partmon.geometry import Box
from partmon.monitor import overlaps, per_image_rule, per_object_rule
from partmon.oracle import oracle_alphas, oracle_metrics, oracle_per_image, oracle_per_object
from partmon.partition import MatchingMode, partition

from conftest import ann, det, part_det, real_boxes, real_sizes

offsets = st.floats(-30.0, 30.0, allow_nan=False)
fractions = st.floats(0.0, 1.0, allow_nan=False)
part_sizes = st.floats(0.5, 40.0, allow_nan=False)
# Subnormal part widths: at small alphas, alpha * part_area underflows to 0.0.
thin_widths = st.sampled_from([5e-324, 1e-323, 2.5e-322])
thin_heights = st.floats(1.0, 40.0)  # 5e-324 * 0.5 would round to a zero area
alphas = st.one_of(st.sampled_from(alpha_grid(0.05)), st.floats(0.001, 0.999, allow_nan=False))
taus = st.sampled_from([0.3, 0.5, 0.7])

# A part 5e-324 wide (the smallest subnormal) with area 5e-324, far from the person.
PERSON = Box(0.0, 0.0, 10.0, 10.0)
THIN = Box(100.0, 100.0, 5e-324, 1.0)


@st.composite
def real_scene(draw, image_id: int) -> Scene:
    anchor = draw(real_boxes)
    gt_boxes = [anchor] + [
        Box(anchor.x + draw(offsets), anchor.y + draw(offsets), draw(real_sizes), draw(real_sizes))
        for _ in range(draw(st.integers(0, 3)))
    ]
    person_boxes = []
    for b in gt_boxes:
        kind = draw(st.sampled_from(["hit", "shifted ghost", "missed"]))
        if kind == "hit":
            person_boxes.append(Box(b.x + draw(st.floats(-2.0, 2.0)), b.y, b.w, b.h))
        elif kind == "shifted ghost":
            person_boxes.append(Box(b.x + b.w * draw(fractions), b.y + b.h * draw(fractions), b.w, b.h))
    person_boxes += draw(st.lists(real_boxes, max_size=1))

    part_boxes = []
    for b in gt_boxes + person_boxes:
        for _ in range(draw(st.integers(0, 2))):
            x, y = b.x + b.w * draw(fractions), b.y + b.h * draw(fractions)
            if draw(st.integers(0, 7)) == 0:
                # At x = 0.0 a thin part keeps its width; elsewhere x + w rounds back to x.
                part_boxes.append(Box(draw(st.sampled_from([x, 0.0])), y, draw(thin_widths), draw(thin_heights)))
            else:
                part_boxes.append(Box(x, y, draw(part_sizes), draw(part_sizes)))
    for a, b in zip(gt_boxes, gt_boxes[1:]):
        if draw(st.booleans()):
            (ax, ay), (bx, by) = (a.x + a.w / 2, a.y + a.h / 2), (b.x + b.w / 2, b.y + b.h / 2)
            part_boxes.append(Box(min(ax, bx), min(ay, by), max(abs(ax - bx), 0.5), max(abs(ay - by), 0.5)))
    part_boxes += draw(st.lists(real_boxes, max_size=1))

    gt = [ann(b, image_id=image_id) for b in gt_boxes]
    gt += [ann(b, image_id=image_id, category=DetectionClass.HEAD) for b in part_boxes if draw(st.booleans())]
    return Scene(
        image_id=image_id,
        persons=tuple(det(b, image_id=image_id) for b in person_boxes),
        parts=tuple(part_det(b, image_id=image_id) for b in part_boxes),
        gt=tuple(gt),
    )


corpora = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*(real_scene(image_id) for image_id in range(1, n + 1)))
).map(list)


def ids(verdict):
    return tuple(tuple(id(d) for d in group) for group in (verdict.tp_mon, verdict.fp_mon, verdict.fn_mon))


def test_overlaps_lists_each_overlapping_pair_once():
    persons = [det(Box(0.0, 0.0, 10.0, 10.0)), det(Box(5.0, 0.0, 10.0, 10.0))]
    parts = [part_det(Box(8.0, 2.0, 4.0, 2.0)), part_det(Box(10.0, 0.0, 1.0, 1.0)), part_det(Box(50.0, 50.0, 1.0, 1.0))]
    # Boxes sharing only an edge (person 0, part 1) do not overlap.
    assert sorted(overlaps(persons, parts, 0.05)) == [(0, 0, 4.0, 8.0), (1, 0, 8.0, 8.0), (1, 1, 1.0, 1.0)]


def test_overlaps_pairs_a_part_whose_threshold_underflows_with_every_person():
    persons = [det(PERSON), det(Box(-5.0, -5.0, 6.0, 6.0))]
    assert sorted(overlaps(persons, [part_det(THIN)], 0.05)) == [(0, 0, 0.0, 5e-324), (1, 0, 0.0, 5e-324)]
    # 0.6 * 5e-324 rounds up to 5e-324: a disjoint pair can no longer pass.
    assert overlaps(persons, [part_det(THIN)], 0.6) == []
    # At the origin the thin part overlaps both persons, and is listed a second time at 0.0.
    at_origin = part_det(Box(0.0, 0.0, 5e-324, 1.0))
    assert overlaps(persons, [at_origin], 0.6) == [(0, 0, 5e-324, 5e-324), (1, 0, 5e-324, 5e-324)]
    assert sorted(overlaps(persons, [at_origin], 0.05)) == [
        (0, 0, 0.0, 5e-324), (0, 0, 5e-324, 5e-324), (1, 0, 0.0, 5e-324), (1, 0, 5e-324, 5e-324)
    ]


# Ids of equal alphas name the alpha and whether its test passes; unequal ones name both alphas.
@pytest.mark.parametrize("alpha_fp, alpha_fn", [
    pytest.param(0.05, 0.05, id="0.05-True"),
    pytest.param(0.5, 0.5, id="0.5-True"),
    pytest.param(0.6, 0.6, id="0.6-False"),
    # One threshold underflows and the other does not: each alpha must decide its own test.
    pytest.param(0.05, 0.6, id="0.05-0.6"),
    pytest.param(0.6, 0.05, id="0.6-0.05"),
])
def test_rules_on_a_disjoint_part_whose_threshold_underflows(alpha_fp, alpha_fn):
    supported, covered = alpha_fp * 5e-324 == 0.0, alpha_fn * 5e-324 == 0.0
    assert (alpha_fp * 5e-324, alpha_fn * 5e-324) == (0.0 if supported else 5e-324, 0.0 if covered else 5e-324)
    person, part = det(PERSON), part_det(THIN)
    alert = per_image_rule([person], [part], alpha_fp, alpha_fn)
    assert alert == oracle_per_image([person], [part], alpha_fp, alpha_fn)
    assert (alert.alert_fp, alert.alert_fn) == (not supported, not covered)
    verdict = per_object_rule([person], [part], alpha_fp, alpha_fn)
    assert ids(verdict) == ids(oracle_per_object([person], [part], alpha_fp, alpha_fn))
    assert verdict.tp_mon == ((person,) if supported else ())
    assert verdict.fn_mon == (() if covered else (part,))


@pytest.mark.parametrize("ghost_all_classes", [False, True])
@pytest.mark.parametrize("alpha", [0.05, 0.6])
def test_object_confusion_on_an_orphan_whose_threshold_underflows(alpha, ghost_all_classes):
    # The person is missed; the only part is a thin orphan far from its ground truth.
    scenes = [Scene(image_id=1, persons=(), parts=(part_det(THIN),), gt=(ann(PERSON),))]
    partitions = [partition((), scenes[0].gt_persons(), 0.5)]
    verdicts = [per_object_rule((), scenes[0].parts, alpha, alpha)]
    confusion = object_confusion(scenes, partitions, verdicts, alpha, ghost_all_classes)
    assert confusion == oracle_metrics(scenes, 0.5, alpha, alpha, ghost_all_classes)[2]
    assert (confusion.fn_gt_fn_mon, confusion.tn_gt_fn_mon) == ((1, 0) if alpha == 0.05 else (0, 1))


@pytest.mark.parametrize("step, expected", [(0.05, 0.55), (0.01, 0.51)])
def test_select_alphas_on_a_part_whose_threshold_underflows(step, expected):
    # Scene 1's ghost person is "supported" by a disjoint thin part up to alpha 0.5;
    # scene 2's real person holds a whole part. Only from the first alpha above 0.5
    # does the FP alert separate them.
    scenes = [
        Scene(image_id=1, persons=(det(PERSON, image_id=1),), parts=(part_det(THIN, image_id=1),), gt=()),
        Scene(image_id=2, persons=(det(PERSON, image_id=2),), parts=(part_det(Box(2.0, 2.0, 3.0, 3.0), image_id=2),),
              gt=(ann(PERSON, image_id=2),)),
    ]
    partitions = [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]
    assert select_alphas(scenes, partitions, step)[0] == expected
    assert select_alphas(scenes, partitions, step) == oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, step)


@pytest.mark.parametrize("ghost, real, step, expected", [
    # Coverage 55/100: 0.55 * 100 rounds up past 55, so the ghost's part stops passing
    # at 0.55, where the ratio 55 / 100 == 0.55 would still pass it.
    ((Box(4.5, 0.0, 10.0, 10.0), Box(0.0, 0.0, 10.0, 10.0)), (PERSON, Box(2.0, 2.0, 3.0, 3.0)), 0.05, 0.55),
    # Coverage 0.35 / 35 passes at 0.01 by the ratio but not by the product test.
    ((Box(0.0, 0.0, 0.35, 10.0), Box(0.0, 0.0, 35.0, 1.0)), (PERSON, Box(2.0, 2.0, 3.0, 3.0)), 0.01, 0.01),
    # The real person's part passes at 0.95 by the product test (0.95 * 3 rounds down to
    # its intersection) but not by the ratio; the ghost's part (9/10) fails from 0.95 on.
    ((PERSON, Box(1.0, 0.0, 10.0, 1.0)), (Box(0.0, 0.0, 2.8499999999999996, 10.0), Box(0.0, 0.0, 3.0, 1.0)),
     0.05, 0.95),
], ids=["ratio-passes-at-0.55", "ratio-passes-at-first-point", "product-passes-at-last-point"])
def test_select_alphas_counts_with_the_product_test_not_the_ratio(ghost, real, step, expected):
    scenes = [
        Scene(image_id=1, persons=(det(ghost[0], image_id=1),), parts=(part_det(ghost[1], image_id=1),), gt=()),
        Scene(image_id=2, persons=(det(real[0], image_id=2),), parts=(part_det(real[1], image_id=2),),
              gt=(ann(real[0], image_id=2),)),
    ]
    partitions = [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]
    assert select_alphas(scenes, partitions, step)[0] == expected
    assert select_alphas(scenes, partitions, step) == oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, step)


# The drawn tests come last, so that a run with -x stops first at a fixed case that fails fast.
@settings(max_examples=150, deadline=None)
@given(scenes=corpora, tau=taus, alpha_fp=alphas, alpha_fn=alphas, ghost_all_classes=st.booleans())
def test_rules_and_confusion_match_oracle_on_real_valued_scenes(scenes, tau, alpha_fp, alpha_fn, ghost_all_classes):
    partitions = [partition(s.persons, s.gt_persons(), tau) for s in scenes]
    alerts, verdicts = [], []
    for s in scenes:
        alerts.append(per_image_rule(s.persons, s.parts, alpha_fp, alpha_fn))
        verdicts.append(per_object_rule(s.persons, s.parts, alpha_fp, alpha_fn))
        assert alerts[-1] == oracle_per_image(s.persons, s.parts, alpha_fp, alpha_fn)
        assert ids(verdicts[-1]) == ids(oracle_per_object(s.persons, s.parts, alpha_fp, alpha_fn))

    want_fp, want_fn, want_confusion, _ = oracle_metrics(
        scenes, tau, alpha_fp, alpha_fn, ghost_all_classes=ghost_all_classes
    )
    assert per_image_counts(scenes, partitions, alerts) == (want_fp, want_fn)
    assert object_confusion(scenes, partitions, verdicts, alpha_fn, ghost_all_classes) == want_confusion


@settings(max_examples=80, deadline=None)
@given(scenes=corpora, tau=taus, step=st.sampled_from([0.05, 0.01]))
def test_select_alphas_matches_brute_force_on_real_valued_scenes(scenes, tau, step):
    partitions = [partition(s.persons, s.gt_persons(), tau) for s in scenes]
    assert select_alphas(scenes, partitions, step) == oracle_alphas(scenes, tau, MatchingMode.EXISTENTIAL, step)
