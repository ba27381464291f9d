import json
import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmon.calibration as calibration
from partmon.calibration import (
    OperatingPoint,
    alpha_grid,
    apply_confidence_thresholds,
    build_operating_point,
    select_alphas,
    select_confidence_threshold,
)
from partmon.datamodel import DetectionClass, Scene
from partmon.errors import CalibrationError, ValidationError
from partmon.geometry import Box, DegeneratePartBoxError
from partmon.oracle import oracle_alphas, oracle_threshold
from partmon.partition import MatchingMode, partition
from partmon.synth import SynthConfig, generate

from conftest import ann, det, part_det, pos_boxes


def test_alpha_grid_default_step():
    grid = alpha_grid(0.05)
    assert len(grid) == 19
    assert grid[0] == 0.05 and grid[-1] == 0.95


def test_alpha_grid_excludes_endpoints():
    assert 1.0 not in alpha_grid(0.25)
    assert alpha_grid(0.25) == [0.25, 0.5, 0.75]


@pytest.mark.parametrize("step", [0.0, 1.0])
def test_alpha_grid_step_outside_the_open_interval_is_rejected(step):
    with pytest.raises(CalibrationError, match=rf"^grid step must lie in \(0, 1\), got {step}$"):
        alpha_grid(step)


def test_alpha_grid_without_interior_point_is_rejected():
    # k * step rounds to 1.0 already at k = 1, which leaves the grid empty.
    with pytest.raises(CalibrationError, match="no grid point"):
        alpha_grid(0.99999999999)


# 0.333333333: the third point rounds to exactly 1 - 1e-9, which is no grid point, so the grid holds two.
@pytest.mark.parametrize("step", [0.05, 0.1, 0.07, 1 / 3, 0.25, 1e-3, 1e-5,
                                  1 / 7, 0.3, 0.49999999999, 0.9, 0.9999999, 0.333333333])
def test_grid_length_is_counted_without_building_the_grid(step):
    listed = []
    while (value := round((len(listed) + 1) * step, 10)) < 1.0 - 1e-9:
        listed.append(value)
    assert calibration._grid_length(step) == len(alpha_grid(step)) == len(listed)
    assert alpha_grid(step) == listed


@pytest.mark.parametrize("step, count", [(1e-9, 999_999_998), (3e-10, 3_333_333_329), (1e-10, 9_999_999_989)])
def test_grid_length_of_a_grid_too_long_to_list(step, count):
    # Counted by stepping a point at a time from an estimate of 1 / step, as the grid was counted before.
    assert calibration._grid_length(step) == count
    assert round(count * step, 10) < 1.0 - 1e-9 <= round((count + 1) * step, 10)


@pytest.fixture
def unlisted_grid(monkeypatch):
    """``alpha_grid`` made to fail, so that a sweep which lists the grid fails too."""
    def refuse(step):
        raise AssertionError(f"the sweep listed the grid of step {step}")
    monkeypatch.setattr(calibration, "alpha_grid", refuse)


@pytest.mark.parametrize("step", [4e-11, 1e-11, 5e-324])
def test_alpha_grid_step_that_rounds_to_zero_is_rejected(step):
    # Rejected before a single grid value is built: the grid would hold ~1/step floats.
    with pytest.raises(CalibrationError, match="rounds to 0"):
        alpha_grid(step)
    scenes, partitions = _alpha_test_scenes()
    with pytest.raises(CalibrationError, match="no grid point"):
        select_alphas(scenes, partitions, grid_step=0.99999999999)


def test_threshold_sweep_prefers_inclusive_low_threshold():
    # Three detections: 0.9 matches GT1, 0.8 matches nothing, 0.3 matches GT2.
    gts = [ann(Box(0, 0, 10, 10), ann_id=1), ann(Box(100, 0, 10, 10), ann_id=2)]
    dets = [
        det(Box(0, 0, 10, 10), score=0.9, det_id=0),
        det(Box(50, 50, 10, 10), score=0.8, det_id=1),
        det(Box(100, 0, 10, 10), score=0.3, det_id=2),
    ]
    assert select_confidence_threshold(dets, gts, tau=0.5) == 0.3


def test_threshold_sweep_single_perfect_detection():
    gts = [ann(Box(0, 0, 10, 10))]
    dets = [det(Box(0, 0, 10, 10), score=0.7)]
    assert select_confidence_threshold(dets, gts, tau=0.5) == 0.7


def test_threshold_sweep_all_unmatched_discards_everything():
    gts = [ann(Box(0, 0, 10, 10))]
    dets = [
        det(Box(500, 500, 10, 10), score=0.6, det_id=0),
        det(Box(700, 700, 10, 10), score=0.9, det_id=1),
    ]
    threshold = select_confidence_threshold(dets, gts, tau=0.5)
    assert threshold > 0.9
    assert all(d.score < threshold for d in dets)


def test_threshold_sweep_requires_ground_truth():
    with pytest.raises(CalibrationError, match="^F1 undefined for class Person: no ground-truth instances$"):
        select_confidence_threshold([det(Box(0, 0, 5, 5), score=0.5)], [], tau=0.5)


def test_threshold_sweep_no_detections_returns_one():
    # Nothing can be kept, so no F1 is needed, with or without ground truth.
    assert select_confidence_threshold([], [ann(Box(0, 0, 5, 5))], tau=0.5) == 1.0
    assert select_confidence_threshold([], [], tau=0.5) == 1.0


def test_threshold_sweep_strict_mode_uses_exclusive_comparison():
    # One perfect detection: with >= the best threshold is its own score,
    # with > that same score would discard it, so the sweep must go lower.
    gts = [ann(Box(0, 0, 10, 10))]
    dets = [det(Box(0, 0, 10, 10), score=0.7)]
    assert select_confidence_threshold(dets, gts, tau=0.5, strict=True) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_threshold_is_argmax_under_independent_resweeep(seed):
    corpus = generate(SynthConfig(seed=seed, n_scenes=10, drop_person_prob=0.3,
                                  ghost_person_prob=0.5, jitter=3.0))
    dets = [d for d in corpus.person_dets]
    gts = [a for a in corpus.gt.annotations if a.category is DetectionClass.PERSON]
    if not dets:
        pytest.skip("corpus has no person detections")
    assert select_confidence_threshold(dets, gts, tau=0.5) == oracle_threshold(dets, gts, 0.5)


@pytest.mark.parametrize("matching", list(MatchingMode))
@pytest.mark.parametrize("seed", range(8))
def test_threshold_is_argmax_when_f1_is_zero_at_every_candidate(seed, matching):
    # Every person is missed and every detection is a ghost, so F1 is 0 at every candidate:
    # the tie rule alone decides, and it picks the highest candidate.
    corpus = generate(SynthConfig(seed=seed, n_scenes=10, drop_person_prob=1.0, ghost_person_prob=0.5))
    dets = list(corpus.person_dets)
    gts = [a for a in corpus.gt.annotations if a.category is DetectionClass.PERSON]
    assert dets, "every seed places ghosts"
    chosen = select_confidence_threshold(dets, gts, tau=0.5, matching=matching)
    assert chosen == oracle_threshold(dets, gts, 0.5, matching) > max(d.score for d in dets)


# Two ground-truth persons four pixels apart. A detection at x = 1 overlaps
# both above tau 0.5 but prefers the left one; x = -2 covers only the left
# one and x = 5 only the right one.
_LEFT, _RIGHT = ann(Box(0, 0, 10, 10), ann_id=1), ann(Box(4, 0, 10, 10), ann_id=2)


def _greedy_case(*dets):
    return [det(Box(x, 0, 10, 10), score=score, det_id=i) for i, (x, score) in enumerate(dets)]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("dets", [
    # The 0.9 detection consumes the left person, so the right one is missed
    # until the 0.5 detection is retained, although the 0.9 one overlaps it.
    _greedy_case((1, 0.9), (60, 0.7), (4, 0.5)),
    # Tied scores: in input order x = -2 takes the left person and x = 1 the
    # right one; the other order would leave the right one to x = 5.
    _greedy_case((-2, 0.8), (1, 0.8), (5, 0.5)),
], ids=["missed-until-its-consumer", "tied-scores"])
def test_greedy_threshold_on_overlapping_persons(dets, strict):
    chosen = select_confidence_threshold(dets, [_LEFT, _RIGHT], 0.5, matching=MatchingMode.GREEDY, strict=strict)
    assert chosen == oracle_threshold(dets, [_LEFT, _RIGHT], 0.5, MatchingMode.GREEDY, strict)


@st.composite
def _greedy_corpus(draw):
    """Clustered persons with near-duplicate detections and tied scores, in shuffled order."""
    dets, gts = [], []
    for image_id in range(1, draw(st.integers(1, 3)) + 1):
        anchor = draw(pos_boxes)
        boxes = [Box(anchor.x + draw(st.integers(-6, 6)), anchor.y + draw(st.integers(-6, 6)), anchor.w, anchor.h)
                 for _ in range(draw(st.integers(0, 3)))]
        gts += [ann(b, image_id=image_id) for b in [anchor] + boxes]
        for b in [anchor] + boxes + [anchor]:
            if draw(st.booleans()):
                shifted = Box(b.x + draw(st.integers(-4, 4)), b.y + draw(st.integers(-4, 4)), b.w, b.h)
                dets.append(det(shifted, image_id=image_id, score=draw(st.sampled_from([0.2, 0.5, 0.8]))))
    return draw(st.permutations(dets)), gts


@pytest.mark.parametrize("matching", list(MatchingMode), ids=lambda mode: mode.value)
@settings(max_examples=200, deadline=None)
@given(_greedy_corpus(), st.sampled_from([0.3, 0.5]), st.booleans())
def test_threshold_is_argmax_of_rescan_on_clustered_persons(matching, corpus, tau, strict):
    # Matching is many-to-many here: a detection can overlap several persons, a person several detections.
    dets, gts = corpus
    if not dets:
        return
    chosen = select_confidence_threshold(dets, gts, tau, matching=matching, strict=strict)
    assert chosen == oracle_threshold(dets, gts, tau, matching, strict)


def _alpha_test_scenes():
    """Two scenes whose FP alert separates labels only for alpha <= 0.3.

    Scene 1 holds a ghost person (no ground truth): the alert fires at every
    alpha. Scene 2 is clean, and its person's only part overlaps it by
    exactly 0.3 of the part area, so the alert starts (wrongly) firing once
    alpha exceeds 0.3.
    """
    ghost = det(Box(0, 0, 100, 100), image_id=1, det_id=0, score=0.9)
    scene1 = Scene(image_id=1, persons=(ghost,), parts=(), gt=())
    person = det(Box(0, 0, 100, 100), image_id=2, det_id=1, score=0.9)
    edge_part = part_det(Box(70, 0, 100, 10), image_id=2, det_id=0)  # inter 300 = 0.3 * 1000
    scene2 = Scene(
        image_id=2,
        persons=(person,),
        parts=(edge_part,),
        gt=(ann(Box(0, 0, 100, 100), image_id=2, ann_id=1),),
    )
    scenes = [scene1, scene2]
    partitions = [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]
    return scenes, partitions


def test_select_alphas_on_constructed_separating_corpus():
    scenes, partitions = _alpha_test_scenes()
    alpha_fp, alpha_fn = select_alphas(scenes, partitions, grid_step=0.05)
    assert alpha_fp <= 0.3
    # No scene has a missed person, so the FN sweep is all ties -> smallest.
    assert alpha_fn == 0.05


def test_select_alphas_single_candidate_grid():
    scenes, partitions = _alpha_test_scenes()
    assert select_alphas(scenes, partitions, grid_step=0.5) == (0.5, 0.5)


def test_select_alphas_constant_mcc_returns_smallest():
    # Ghost with no parts anywhere: the FP alert fires at every alpha, and
    # the clean scene's part sits fully inside its person, never alerting.
    ghost = det(Box(0, 0, 50, 50), image_id=1, det_id=0)
    scene1 = Scene(image_id=1, persons=(ghost,), parts=(), gt=())
    person = det(Box(0, 0, 100, 100), image_id=2, det_id=1)
    inner = part_det(Box(10, 10, 20, 20), image_id=2, det_id=0)
    scene2 = Scene(image_id=2, persons=(person,), parts=(inner,),
                   gt=(ann(Box(0, 0, 100, 100), image_id=2, ann_id=1),))
    scenes = [scene1, scene2]
    partitions = [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]
    alpha_fp, alpha_fn = select_alphas(scenes, partitions, grid_step=0.05)
    assert alpha_fp == 0.05
    assert alpha_fn == 0.05


def test_select_alphas_rejects_empty_and_mismatched_inputs():
    with pytest.raises(CalibrationError):
        select_alphas([], [], grid_step=0.05)
    scenes, partitions = _alpha_test_scenes()
    with pytest.raises(ValidationError):
        select_alphas(scenes, partitions[:1], grid_step=0.05)


@pytest.mark.parametrize("seed", range(6))
def test_selected_alphas_are_argmax_under_independent_resweeep(seed):
    corpus = generate(SynthConfig(seed=100 + seed, n_scenes=12, drop_person_prob=0.25,
                                  ghost_person_prob=0.3, ghost_part_prob=0.3, jitter=2.0))
    scenes = list(corpus.scenes())
    partitions = [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]
    want = oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, 0.05)
    assert select_alphas(scenes, partitions, grid_step=0.05) == want


def test_select_alphas_deterministic_across_thread_counts():
    corpus = generate(SynthConfig(seed=5, n_scenes=15, ghost_person_prob=0.4, jitter=2.0))
    scenes = list(corpus.scenes())
    partitions = [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]
    reference = select_alphas(scenes, partitions, grid_step=0.05, threads=1)
    for threads in range(2, 9):
        assert select_alphas(scenes, partitions, grid_step=0.05, threads=threads) == reference


def _scenes_and_partitions(scenes):
    return scenes, [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]


def _grid_edge_scenes():
    """Integer boxes whose part coverage is exactly 0.25 or 0.2 (a 4x5 part, intersection 5 or 4).

    Scene 1 is clean, with coverage 0.25: the FP alert must stay off at alpha
    0.25 and fire from the next grid point on. Scene 2's ghost person has
    coverage 0.2 and should fire from the first alpha above 0.2. Scenes 3 and
    4 mirror this for the FN alert: scene 3 misses a person and its part is
    covered to 0.2 by the wrong one; scene 4 is clean, its part covered to 0.25.
    So MCC is 1 exactly on the grid points in (0.2, 0.25], and a strict
    comparison would move the optimum down to 0.2.
    """
    def person_scene(image_id, x, part_box, gt_boxes):
        return Scene(
            image_id=image_id,
            persons=(det(Box(x, 0, 10, 10), image_id=image_id, det_id=0),),
            parts=(part_det(part_box, image_id=image_id, det_id=0),),
            gt=tuple(ann(b, image_id=image_id, ann_id=i) for i, b in enumerate(gt_boxes)),
        )

    return _scenes_and_partitions([
        person_scene(1, 0, Box(-3, 0, 4, 5), [Box(0, 0, 10, 10)]),
        person_scene(2, 100, Box(109, 6, 4, 5), []),
        person_scene(3, 200, Box(209, 6, 4, 5), [Box(200, 0, 10, 10), Box(220, 0, 10, 10)]),
        person_scene(4, 300, Box(309, 5, 4, 5), [Box(300, 0, 10, 10)]),
    ])


@pytest.mark.parametrize("step, expected", [(0.25, (0.25, 0.25)), (0.05, (0.25, 0.25)), (0.01, (0.21, 0.21))])
def test_select_alphas_flip_on_exact_grid_coverage(step, expected):
    scenes, partitions = _grid_edge_scenes()
    assert select_alphas(scenes, partitions, grid_step=step) == expected
    assert oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, step) == expected


def test_select_alphas_when_the_quotient_overshoots_the_exact_test():
    # A clean scene's part is covered 55 / 100, and 0.55 / 0.05 = 11.000000000000002,
    # but 55 >= 0.55 * 100 is false in floats: its FP alert fires from 0.55 on, with
    # the ghost's (covered 50 / 100). No alpha separates them, so the smallest wins.
    def scene(image_id, covered_rows, gt):
        person = Box(100 * image_id, 0, 10, 40)
        part = Box(person.x, 40 - covered_rows, 5, 20)
        return Scene(image_id=image_id, persons=(det(person, image_id=image_id),),
                     parts=(part_det(part, image_id=image_id),),
                     gt=tuple(ann(person, image_id=image_id) for _ in range(gt)))

    scenes, partitions = _scenes_and_partitions([scene(1, 11, gt=1), scene(2, 10, gt=0)])
    assert select_alphas(scenes, partitions, grid_step=0.05) == (0.05, 0.05)
    assert oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, 0.05) == (0.05, 0.05)


def test_select_alphas_memory_does_not_grow_with_the_grid():
    # The grid of step 1e-5 has 99,999 points; listing it alone would take megabytes.
    scenes, partitions = _grid_edge_scenes()
    tracemalloc.start()
    try:
        chosen = select_alphas(scenes, partitions, grid_step=1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chosen == (0.20001, 0.20001)
    assert peak < 1_000_000


def test_select_alphas_between_duplicate_grid_values(unlisted_grid):
    # Below 1e-10 neighbouring grid points round to the same 10-decimal value,
    # and the grid of step 6e-11 has about 1.7e10 of them.
    scenes, partitions = _grid_edge_scenes()
    k = 3333333334  # point k - 1 rounds to 0.2 exactly; point k is the first value above it
    assert round(k * 6e-11, 10) == 0.2 < round((k + 1) * 6e-11, 10)
    assert round((k + 2) * 6e-11, 10) == round((k + 3) * 6e-11, 10)  # points k + 1 and k + 2
    assert select_alphas(scenes, partitions, grid_step=6e-11) == (round((k + 1) * 6e-11, 10),) * 2


def _crowd_scenes(seed=2, n_scenes=6):
    """Rows of overlapping persons, some missed, with heads partly outside their box,
    ghost persons above the row cutting into the heads and ghost parts straddling two persons."""
    rng = random.Random(seed)
    scenes = []
    for image_id in range(1, n_scenes + 1):
        gt = [Box(30 * i, 0, 40, 100) for i in range(rng.randint(2, 4))]
        persons = [Box(b.x + rng.randint(-2, 2), b.y, b.w, b.h) for b in gt if rng.random() > 0.25]
        parts = [Box(b.x + 12 + rng.randint(-15, 15), rng.randint(-12, 4), 16, 20) for b in gt]
        if rng.random() < 0.5:
            persons.append(Box(rng.randint(0, 60), rng.randint(-95, -85), 40, 100))
        if rng.random() < 0.5:
            parts.append(Box(rng.randint(20, 50), rng.randint(-10, 0), 20, 16))
        scenes.append(Scene(image_id=image_id,
                            persons=tuple(det(b, image_id=image_id, det_id=i) for i, b in enumerate(persons)),
                            parts=tuple(part_det(b, image_id=image_id, det_id=i) for i, b in enumerate(parts)),
                            gt=tuple(ann(b, image_id=image_id, ann_id=i) for i, b in enumerate(gt))))
    return _scenes_and_partitions(scenes)


@pytest.mark.parametrize("step", [1e-3, 1e-4])
def test_select_alphas_matches_oracle_at_fine_steps(step, unlisted_grid):
    scenes, partitions = _crowd_scenes()
    want = oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, step)
    assert all(step < alpha < 1 - 2 * step for alpha in want)  # an interior optimum, off the grid's ends
    assert select_alphas(scenes, partitions, grid_step=step) == want


def _sparse_scenes():
    """Scenes with no persons, with no parts, empty ones, and a person without parts."""
    person = Box(0, 0, 10, 10)
    inner = Box(2, 2, 4, 4)
    return _scenes_and_partitions([
        # Only a part, next to a missed person: the FN alert fires at every alpha.
        Scene(image_id=1, parts=(part_det(Box(0, 0, 4, 5), image_id=1),), gt=(ann(person, image_id=1),)),
        # Only a ghost person: the FP alert fires at every alpha, the FN alert never.
        Scene(image_id=2, persons=(det(person, image_id=2),)),
        # Nothing detected, one missed person.
        Scene(image_id=3, gt=(ann(person, image_id=3),)),
        # Nothing at all.
        Scene(image_id=4),
        # Two matched persons, one of them without a part.
        Scene(
            image_id=5,
            persons=(det(person, image_id=5, det_id=0), det(Box(50, 0, 10, 10), image_id=5, det_id=1)),
            parts=(part_det(inner, image_id=5),),
            gt=(ann(person, image_id=5, ann_id=0), ann(Box(50, 0, 10, 10), image_id=5, ann_id=1)),
        ),
        # A clean scene whose part sits on the person's edge (coverage 0.5).
        Scene(image_id=6, persons=(det(person, image_id=6),), parts=(part_det(Box(8, 0, 4, 5), image_id=6),),
              gt=(ann(person, image_id=6),)),
    ])


@pytest.mark.parametrize("step", [0.25, 0.05, 0.01])
def test_select_alphas_on_scenes_without_persons_or_parts(step):
    scenes, partitions = _sparse_scenes()
    want = oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, step)
    assert select_alphas(scenes, partitions, grid_step=step) == want


@pytest.mark.parametrize("step", [0.25, 0.05, 0.01])
@pytest.mark.parametrize("positive", [True, False])
def test_select_alphas_with_one_label_only_returns_smallest(step, positive):
    # Every scene is a positive (a ghost and a missed person) or every scene
    # is clean, so MCC is 0 at every grid point and the smallest alpha wins.
    scenes = []
    for image_id in range(1, 5):
        person = Box(100 * image_id, 0, 10, 10)
        part = part_det(Box(person.x + 3 * image_id - 4, 0, 4, 5), image_id=image_id)
        gt = [ann(person, image_id=image_id, ann_id=0)]
        if positive:
            gt = [ann(Box(person.x, 50, 10, 10), image_id=image_id, ann_id=0)]
        scenes.append(Scene(image_id=image_id, persons=(det(person, image_id=image_id),), parts=(part,),
                            gt=tuple(gt)))
    scenes, partitions = _scenes_and_partitions(scenes)
    labels = {(len(p.fp_gt) >= 1, len(p.fn_gt) >= 1) for p in partitions}
    assert labels == {(positive, positive)}
    smallest = alpha_grid(step)[0]
    assert select_alphas(scenes, partitions, grid_step=step) == (smallest, smallest)
    assert oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, step) == (smallest, smallest)


def _covered_scene(image_id, person, part, gt):
    """A scene with or without a person at (0, 0, 10, 10) and a part at (7, 0, 10, 10), which the person covers
    0.3, and ground-truth persons at ``gt``."""
    return Scene(image_id=image_id, persons=(det(Box(0, 0, 10, 10), image_id=image_id),) if person else (),
                 parts=(part_det(Box(7, 0, 10, 10), image_id=image_id),) if part else (),
                 gt=tuple(ann(box, image_id=image_id) for box in gt))


_MATCHED, _MISSED = (Box(0, 0, 10, 10),), (Box(100, 100, 10, 10),)


# At step 0.25, coverage 0.3 supports a person at alpha 0.25 only: its alert turns on at grid index 1. The
# scene without persons (or without parts) never alerts; counted as alerting from index 0, it ties MCC at
# 0.25 and 0.5, and the smaller alpha wins the tie.
@pytest.mark.parametrize("specs, alert", [
    # Two ghosts without a part, two ghosts and one matched person covering their part 0.3, one lone part.
    ([(True, False, ())] * 2 + [(True, True, ())] * 2 + [(True, True, _MATCHED), (False, True, ())], 0),
    # Two orphan parts and two parts a ghost covers 0.3 beside a missed person, one matched person covering its
    # part 0.3, and one matched person without a part.
    ([(False, True, _MISSED)] * 2 + [(True, True, _MISSED)] * 2 + [(True, True, _MATCHED), (True, False, _MATCHED)],
     1),
], ids=["person-free", "part-free"])
def test_select_alphas_never_alerts_on_a_scene_without_persons_or_parts(specs, alert):
    scenes, partitions = _scenes_and_partitions([_covered_scene(i, *spec) for i, spec in enumerate(specs, 1)])
    chosen = select_alphas(scenes, partitions, grid_step=0.25)
    assert chosen == oracle_alphas(scenes, 0.5, MatchingMode.EXISTENTIAL, 0.25)
    assert chosen[alert] == 0.5


def test_select_alphas_rejects_part_box_whose_area_underflows():
    # Both sides are positive, but their product rounds to 0.0. A Detection refuses such a box, so a bare record
    # carries it, as in test_geometry.
    tiny = SimpleNamespace(box=Box(1, 1, 1e-200, 1e-200))
    scenes, partitions = _scenes_and_partitions(
        [Scene(image_id=1, persons=(det(Box(0, 0, 10, 10)),), parts=(tiny,), gt=(ann(Box(0, 0, 10, 10)),))]
    )
    with pytest.raises(DegeneratePartBoxError):
        select_alphas(scenes, partitions, grid_step=0.05)


def test_build_operating_point_deterministic_across_threads():
    corpus = generate(SynthConfig(seed=9, n_scenes=10, ghost_person_prob=0.3))
    scenes = list(corpus.scenes())
    reference = build_operating_point(scenes, threads=1)
    for threads in (2, 5, 8):
        assert build_operating_point(scenes, threads=threads) == reference


def test_build_operating_point_requires_gt_for_each_detected_class():
    scene = Scene(image_id=1, persons=(det(Box(0, 0, 10, 10), score=0.5),), parts=(), gt=())
    with pytest.raises(CalibrationError, match="Person"):
        build_operating_point([scene])


def test_build_operating_point_refusals_keep_their_text_and_order():
    # A scene list with ground truth but no detection, and an empty one.
    for scenes in ([Scene(image_id=1, gt=(ann(Box(0, 0, 10, 10)),)), Scene(image_id=2)], []):
        with pytest.raises(CalibrationError, match=r"^no detections to calibrate on$"):
            build_operating_point(scenes, grid_step=2.0)
    # Torso and Head are detected without ground truth: the refusal names the first class by name, and comes
    # before the grid step is checked.
    scene = Scene(image_id=1, persons=(det(Box(0, 0, 10, 10)),),
                  parts=(part_det(Box(0, 0, 5, 5)), part_det(Box(0, 0, 5, 5), category=DetectionClass.HEAD)),
                  gt=(ann(Box(0, 0, 10, 10)),))
    for matching in MatchingMode:
        with pytest.raises(CalibrationError, match=r"^F1 undefined for class Head: no ground-truth instances$"):
            build_operating_point([scene], matching=matching, grid_step=2.0)


def _composed_operating_point(scenes, tau, grid_step, matching, strict_conf):
    """``build_operating_point`` written out from the public pieces: per-class threshold sweeps over flat class
    lists, the thresholds applied, one ``partition`` per kept scene, then the alpha sweep."""
    dets_by_class, gts_by_class = {}, {}
    for scene in scenes:
        for d in (*scene.persons, *scene.parts):
            dets_by_class.setdefault(d.category, []).append(d)
        for a in scene.gt:
            gts_by_class.setdefault(a.category, []).append(a)
    if not dets_by_class:
        raise CalibrationError("no detections to calibrate on")
    conf = {cls: select_confidence_threshold(dets_by_class[cls], gts_by_class.get(cls, ()), tau, matching, strict_conf)
            for cls in sorted(dets_by_class, key=lambda c: c.value)}
    filtered = apply_confidence_thresholds(scenes, conf, strict=strict_conf)
    partitions = [partition(s.persons, s.gt_persons(), tau, matching) for s in filtered]
    alpha_fp, alpha_fn = select_alphas(filtered, partitions, grid_step)
    return OperatingPoint(conf, alpha_fp=alpha_fp, alpha_fn=alpha_fn, tau=tau, strict_conf=strict_conf)


_SCORE_VALUES = (0.2, 0.5, 0.8)
_SCORES = st.sampled_from(_SCORE_VALUES)


@st.composite
def _calibration_scenes(draw):
    """Scenes of side-by-side persons, some missed, some detected twice (the copy scored lower, so greedy
    matching leaves it unmatched), ghost persons, and parts straddling the persons with part ground truth.
    Scores come from three values, so ties occur."""
    scenes = []
    for image_id in range(1, draw(st.integers(1, 4)) + 1):
        persons, parts, gt = [], [], []
        for k in range(draw(st.integers(0, 3))):
            truth = Box(30.0 * k + draw(st.integers(0, 6)), draw(st.integers(0, 6)), 40.0, 80.0)
            gt.append(ann(truth, image_id=image_id))
            if draw(st.integers(0, 3)):  # detected, three times out of four
                score = draw(_SCORES)
                persons.append((truth, score))
                if draw(st.booleans()):
                    persons.append((truth, draw(st.sampled_from([s for s in _SCORE_VALUES if s < score] or [score]))))
        persons += [(Box(200.0 + 50 * k, 0.0, 40.0, 80.0), draw(_SCORES)) for k in range(draw(st.integers(0, 2)))]
        dets = []
        for box, score in persons:
            dx, dy = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
            dets.append(det(Box(box.x + dx, box.y + dy, box.w, box.h), image_id=image_id, score=score))
        for person in dets + [None]:
            for _ in range(draw(st.integers(0, 2))):
                category = draw(st.sampled_from([DetectionClass.TORSO, DetectionClass.HEAD]))
                x, y = (person.box.x, person.box.y) if person else (400.0, 0.0)
                box = Box(x + draw(st.integers(-15, 35)), y + draw(st.integers(0, 70)), 20.0, 20.0)
                parts.append(part_det(box, image_id=image_id, category=category, score=draw(_SCORES)))
                if draw(st.integers(0, 3)):  # annotated, three times out of four
                    gt.append(ann(box, image_id=image_id, category=category))
        scenes.append(Scene(image_id=image_id, persons=tuple(draw(st.permutations(dets))), parts=tuple(parts),
                            gt=tuple(gt)))
    return scenes


def _outcome(build, *args):
    try:
        return build(*args)
    except CalibrationError as exc:
        return str(exc)


@pytest.mark.parametrize("strict_conf", [False, True])
@pytest.mark.parametrize("matching", list(MatchingMode), ids=lambda mode: mode.value)
@settings(max_examples=150, deadline=None)
@given(_calibration_scenes(), st.sampled_from([0.3, 0.5]), st.sampled_from([0.25, 0.05]))
def test_build_operating_point_equals_its_composition_from_public_pieces(matching, strict_conf, scenes, tau, step):
    args = scenes, tau, step, matching, strict_conf
    assert _outcome(build_operating_point, *args) == _outcome(_composed_operating_point, *args)


def test_operating_point_round_trip(tmp_path):
    op = OperatingPoint(
        conf_thresholds={DetectionClass.PERSON: 0.4, DetectionClass.HEAD: 0.25},
        alpha_fp=0.3,
        alpha_fn=0.15,
        tau=0.5,
    )
    path = tmp_path / "op.json"
    op.save(path)
    assert OperatingPoint.load(path) == op
    raw = json.loads(path.read_text())
    assert raw["conf"] == {"Head": 0.25, "Person": 0.4}


def test_operating_point_records_the_strict_rule_only_when_set():
    loose = OperatingPoint(conf_thresholds={DetectionClass.PERSON: 0.4}, alpha_fp=0.3, alpha_fn=0.15, tau=0.5)
    strict = OperatingPoint(loose.conf_thresholds, 0.3, 0.15, 0.5, strict_conf=True)
    assert "strict_conf" not in loose.to_json_dict()
    assert strict.to_json_dict() == {**loose.to_json_dict(), "strict_conf": True}
    assert OperatingPoint.from_json_dict(loose.to_json_dict()) == loose
    assert OperatingPoint.from_json_dict(strict.to_json_dict()) == strict
    assert OperatingPoint.from_json_dict({**loose.to_json_dict(), "strict_conf": False}) == loose
    for value in (1, 0, "true", None):
        with pytest.raises(ValidationError, match="'strict_conf' must be a boolean"):
            OperatingPoint.from_json_dict({**loose.to_json_dict(), "strict_conf": value})


def test_build_operating_point_records_its_rule():
    scene = Scene(image_id=1, persons=(det(Box(0, 0, 10, 10), score=0.5),), parts=(),
                  gt=(ann(Box(0, 0, 10, 10)),))
    assert build_operating_point([scene]).strict_conf is False
    assert build_operating_point([scene], strict_conf=True).strict_conf is True


def test_operating_point_validation():
    with pytest.raises(ValidationError):
        OperatingPoint(conf_thresholds={}, alpha_fp=0.0, alpha_fn=0.5, tau=0.5)
    with pytest.raises(ValidationError):
        OperatingPoint(conf_thresholds={DetectionClass.PERSON: 1.5}, alpha_fp=0.5, alpha_fn=0.5, tau=0.5)
    # The discard-everything sentinel sits one ulp above 1.0 and must load.
    OperatingPoint(
        conf_thresholds={DetectionClass.PERSON: math.nextafter(1.0, math.inf)},
        alpha_fp=0.5, alpha_fn=0.5, tau=0.5,
    )


def test_operating_point_load_errors(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        OperatingPoint.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(ValidationError, match="malformed"):
        OperatingPoint.load(bad)


def test_apply_confidence_thresholds():
    scene = Scene(
        image_id=1,
        persons=(det(Box(0, 0, 10, 10), score=0.8, det_id=0), det(Box(0, 0, 10, 10), score=0.3, det_id=1)),
        parts=(part_det(Box(0, 0, 5, 5), score=0.5, det_id=0),),
    )
    conf = {DetectionClass.PERSON: 0.5, DetectionClass.TORSO: 0.5}
    filtered = apply_confidence_thresholds([scene], conf)[0]
    assert [d.det_id for d in filtered.persons] == [0]
    assert len(filtered.parts) == 1  # score == threshold retained by default
    strict = apply_confidence_thresholds([scene], conf, strict=True)[0]
    assert len(strict.parts) == 0


def test_apply_confidence_thresholds_missing_class():
    scene = Scene(image_id=1, persons=(det(Box(0, 0, 10, 10), score=0.8),))
    with pytest.raises(ValidationError, match="Person"):
        apply_confidence_thresholds([scene], {DetectionClass.TORSO: 0.5})
