import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmon.calibration import OperatingPoint
from partmon.errors import ValidationError
from partmon.evaluation import object_confusion
from partmon.geometry import Box, part_overlap_at_least
from partmon.monitor import per_image_rule, per_object_rule
from partmon.oracle import oracle_per_image, oracle_per_object
from partmon.partition import partition
from partmon.synth import SynthConfig

from conftest import det, part_det, pos_boxes

ALPHA_GRID = [round(k * 0.05, 10) for k in range(1, 20)]


def three_box_scene():
    person = det(Box(0, 0, 100, 200), det_id=0)
    inside = part_det(Box(10, 10, 30, 30), det_id=0)
    stray = part_det(Box(300, 300, 30, 30), det_id=1)
    return [person], [inside, stray]


def test_person_with_no_parts_raises_fp_alert():
    alert = per_image_rule([det(Box(0, 0, 10, 10))], [], 0.5, 0.5)
    assert alert.alert_fp is True
    assert alert.alert_fn is False


def test_part_with_no_persons_raises_fn_alert():
    alert = per_image_rule([], [part_det(Box(0, 0, 10, 10))], 0.5, 0.5)
    assert alert.alert_fp is False
    assert alert.alert_fn is True


def test_three_box_scene_alerts():
    persons, parts = three_box_scene()
    alert = per_image_rule(persons, parts, 0.5, 0.5)
    assert alert.alert_fp is False  # the person fully covers part A
    assert alert.alert_fn is True  # part B matches no person


def test_three_box_scene_verdict():
    persons, parts = three_box_scene()
    verdict = per_object_rule(persons, parts, 0.5, 0.5)
    assert verdict.tp_mon == tuple(persons)
    assert verdict.fp_mon == ()
    assert verdict.fn_mon == (parts[1],)


def test_disjoint_person_and_part_fail_both_rules():
    persons = [det(Box(0, 0, 10, 10))]
    parts = [part_det(Box(100, 100, 10, 10))]
    verdict = per_object_rule(persons, parts, 0.5, 0.5)
    assert verdict.fp_mon == tuple(persons)
    assert verdict.fn_mon == tuple(parts)


def test_empty_scene_gives_empty_sets_and_no_alerts():
    verdict = per_object_rule([], [], 0.5, 0.5)
    assert verdict.tp_mon == verdict.fp_mon == verdict.fn_mon == ()
    alert = per_image_rule([], [], 0.5, 0.5)
    assert (alert.alert_fp, alert.alert_fn) == (False, False)


def test_overlap_boundary_is_inclusive_for_tp_mon():
    person = det(Box(0, 0, 10, 10))
    part = part_det(Box(5, 0, 10, 10))  # intersection 50 = 0.5 * area
    verdict = per_object_rule([person], [part], 0.5, 0.5)
    assert verdict.tp_mon == (person,)
    assert verdict.fn_mon == ()


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 3.0, math.nan])
def test_rules_reject_alpha_outside_open_interval(alpha):
    # Every consumer of an alpha or tau refuses it by one rule, with a ValidationError that is also a ValueError.
    calls = {
        "alpha_fp": [lambda: per_image_rule([], [], alpha, 0.5), lambda: per_object_rule([], [], alpha, 0.5),
                     lambda: OperatingPoint({}, alpha, 0.5, 0.5)],
        "alpha_fn": [lambda: per_image_rule([], [], 0.5, alpha), lambda: per_object_rule([], [], 0.5, alpha),
                     lambda: object_confusion([], [], [], alpha_fn=alpha), lambda: OperatingPoint({}, 0.5, alpha, 0.5)],
        "tau": [lambda: partition([], [], alpha), lambda: OperatingPoint({}, 0.5, 0.5, alpha)],
        "alpha": [lambda: part_overlap_at_least(Box(0, 0, 1, 1), Box(0, 0, 1, 1), alpha)],
    }
    for name, refused in calls.items():
        for call in refused:
            with pytest.raises(ValidationError, match=rf"^{name} must lie in \(0, 1\), got {alpha}$"):
                call()
    assert issubclass(ValidationError, ValueError)


@pytest.mark.parametrize("refused, message", [
    (lambda: Box(0, 0, -1, 2), "box width/height must be non-negative, got w=-1, h=2"),
    (lambda: part_overlap_at_least(Box(0, 0, 1, 1), Box(0, 0, 0, 1), 0.5),
     "degenerate part box: Box(x=0, y=0, w=0, h=1)"),
    (lambda: SynthConfig(ghost_part_prob=1.5), "ghost_part_prob must lie in [0, 1], got 1.5"),
    (lambda: SynthConfig(parts_per_person=(3, 2)),
     "parts_per_person must be a non-empty non-negative range, got (3, 2)"),
    (lambda: SynthConfig(n_scenes=-1), "n_scenes must be non-negative, got -1"),
    (lambda: SynthConfig(jitter=math.inf), "jitter must be finite and non-negative, got inf"),
], ids=["negative-box", "degenerate-part", "probability", "range", "n-scenes", "jitter"])
def test_every_input_refusal_is_a_validation_error(refused, message):
    # A library caller that catches ValidationError sees every input problem, each with its own message.
    with pytest.raises(ValidationError) as caught:
        refused()
    assert str(caught.value) == message


scene_persons = st.lists(pos_boxes, max_size=6).map(
    lambda bs: [det(b, det_id=i, score=0.5) for i, b in enumerate(bs)]
)
scene_parts = st.lists(pos_boxes, max_size=8).map(
    lambda bs: [part_det(b, det_id=i, score=0.5) for i, b in enumerate(bs)]
)
alphas = st.sampled_from(ALPHA_GRID)


@given(scene_persons, scene_parts, alphas, alphas)
@settings(max_examples=200)
def test_rules_match_brute_force_oracle(persons, parts, alpha_fp, alpha_fn):
    assert per_image_rule(persons, parts, alpha_fp, alpha_fn) == oracle_per_image(
        persons, parts, alpha_fp, alpha_fn
    )
    got = per_object_rule(persons, parts, alpha_fp, alpha_fn)
    want = oracle_per_object(persons, parts, alpha_fp, alpha_fn)
    assert got.tp_mon == want.tp_mon
    assert got.fp_mon == want.fp_mon
    assert got.fn_mon == want.fn_mon


@given(scene_persons, scene_parts, alphas, alphas)
@settings(max_examples=200)
def test_alerts_consistent_with_verdict_sets(persons, parts, alpha_fp, alpha_fn):
    alert = per_image_rule(persons, parts, alpha_fp, alpha_fn)
    verdict = per_object_rule(persons, parts, alpha_fp, alpha_fn)
    assert alert.alert_fp == (len(verdict.fp_mon) > 0)
    assert alert.alert_fn == (len(verdict.fn_mon) > 0)
    assert len(verdict.tp_mon) + len(verdict.fp_mon) == len(persons)


@given(scene_persons, scene_parts)
@settings(max_examples=50)
def test_fp_mon_grows_with_alpha_fp_and_ignores_alpha_fn(persons, parts):
    previous = None
    for alpha in ALPHA_GRID:
        verdict = per_object_rule(persons, parts, alpha, 0.5)
        fp_ids = {id(d) for d in verdict.fp_mon}
        if previous is not None:
            assert fp_ids >= previous
        previous = fp_ids
        # fn_mon must not react to alpha_fp at all
        assert verdict.fn_mon == per_object_rule(persons, parts, 0.5, 0.5).fn_mon


@given(scene_persons, scene_parts)
@settings(max_examples=50)
def test_fn_mon_grows_with_alpha_fn_and_ignores_alpha_fp(persons, parts):
    previous = None
    for alpha in ALPHA_GRID:
        verdict = per_object_rule(persons, parts, 0.5, alpha)
        fn_ids = {id(d) for d in verdict.fn_mon}
        if previous is not None:
            assert fn_ids >= previous
        previous = fn_ids
        assert verdict.fp_mon == per_object_rule(persons, parts, 0.5, 0.5).fp_mon


@given(scene_persons, scene_parts, alphas)
@settings(max_examples=100)
def test_adding_disjoint_part_never_demotes_a_person(persons, parts, alpha):
    before = per_object_rule(persons, parts, alpha, alpha)
    far_part = part_det(Box(10_000, 10_000, 5, 5), det_id=999)
    after = per_object_rule(persons, parts + [far_part], alpha, alpha)
    assert {id(d) for d in before.tp_mon} <= {id(d) for d in after.tp_mon}
