import json
import sys

import pytest

import partmon.datamodel
from partmon.datamodel import (
    DetectionClass,
    load_category_map,
    load_detections,
    load_ground_truth,
)
from partmon.evaluation import BinaryCounts
from partmon.geometry import Box, intersection_area
from partmon.monitor import per_object_rule
from partmon.oracle import oracle_metrics, oracle_per_object
from partmon.partition import partition
from partmon.synth import CATEGORY_IDS, SceneLabels, SynthConfig, generate, write_corpus

from conftest import ann, det, part_det


def test_generation_is_deterministic():
    a = generate(SynthConfig(seed=11, n_scenes=10, jitter=2.0))
    b = generate(SynthConfig(seed=11, n_scenes=10, jitter=2.0))
    assert a == b
    c = generate(SynthConfig(seed=12, n_scenes=10, jitter=2.0))
    assert a != c


def test_drop_everything_labels_all_persons_missed():
    corpus = generate(SynthConfig(seed=3, n_scenes=8, drop_person_prob=1.0,
                                  ghost_person_prob=0.0, ghost_part_prob=0.0))
    assert corpus.person_dets == ()
    for labels in corpus.labels:
        assert labels.tp_person_det_ids == ()
        assert labels.fp_person_det_ids == ()
    n_person_gt = sum(
        1 for a in corpus.gt.annotations if a.category is DetectionClass.PERSON
    )
    assert sum(len(l.fn_person_ann_ids) for l in corpus.labels) == n_person_gt


def test_clean_corpus_never_trips_the_monitor():
    corpus = generate(SynthConfig(seed=4, n_scenes=10, drop_person_prob=0.0,
                                  drop_part_prob=0.0, ghost_person_prob=0.0,
                                  ghost_part_prob=0.0, jitter=0.0))
    for scene in corpus.scenes():
        for alpha in (0.05, 0.5, 0.95):
            verdict = per_object_rule(scene.persons, scene.parts, alpha, alpha)
            assert verdict.fp_mon == ()
            assert verdict.fn_mon == ()


def test_generated_parts_lie_inside_their_person():
    corpus = generate(SynthConfig(seed=6, n_scenes=10, parts_per_person=(8, 8),
                                  drop_person_prob=0.0, drop_part_prob=0.0,
                                  ghost_person_prob=0.0, ghost_part_prob=0.0))
    for scene in corpus.scenes():
        for part in scene.parts:
            owner = [p for p in scene.persons if intersection_area(p.box, part.box) > 0]
            assert owner, f"part {part} belongs to no person"
            covered = max(intersection_area(p.box, part.box) for p in owner)
            assert covered == part.box.w * part.box.h


@pytest.mark.parametrize("seed", range(6))
def test_labels_sound_against_partition_at_default_tau(seed):
    corpus = generate(SynthConfig(seed=seed, n_scenes=10, drop_person_prob=0.3,
                                  ghost_person_prob=0.4, jitter=0.0))
    for scene, labels in zip(corpus.scenes(), corpus.labels):
        result = partition(scene.persons, scene.gt_persons(), tau=0.5)
        assert sorted(d.det_id for d in result.tp_gt) == sorted(labels.tp_person_det_ids)
        assert sorted(d.det_id for d in result.fp_gt) == sorted(labels.fp_person_det_ids)
        assert sorted(a.ann_id for a in result.fn_gt) == sorted(labels.fn_person_ann_ids)


def test_corpus_round_trips_through_files(tmp_path):
    corpus = generate(SynthConfig(seed=21, n_scenes=6, jitter=1.5))
    paths = write_corpus(corpus, tmp_path)
    category_map = load_category_map(paths["category_map"])
    assert load_ground_truth(paths["gt"], category_map) == corpus.gt
    assert load_detections(paths["persons"], category_map) == corpus.person_dets
    assert load_detections(paths["parts"], category_map) == corpus.part_dets


def test_each_written_box_passes_the_loaders_bbox_rule_once(tmp_path):
    # Calls are counted by the function's code, so a call through any name bound to it counts.
    code, calls = partmon.datamodel._parse_bbox.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_locals["raw"])

    sys.setprofile(profile)
    try:
        corpus = generate(SynthConfig(seed=23, n_scenes=30, jitter=2.0))
    finally:
        sys.setprofile(None)
    paths = write_corpus(corpus, tmp_path)
    written = [entry["bbox"] for role in ("persons", "parts") for entry in json.loads(paths[role].read_text())]
    written += [entry["bbox"] for entry in json.loads(paths["gt"].read_text())["annotations"]]
    assert len(written) > 100
    assert sorted(map(list, calls)) == sorted(written)


def test_empty_corpus_is_valid(tmp_path):
    corpus = generate(SynthConfig(seed=0, n_scenes=0))
    assert corpus.gt.annotations == () and corpus.labels == ()
    paths = write_corpus(corpus, tmp_path)
    category_map = load_category_map(paths["category_map"])
    assert load_ground_truth(paths["gt"], category_map) == corpus.gt


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(drop_person_prob=1.2)
    with pytest.raises(ValueError):
        SynthConfig(persons_per_scene=(3, 1))
    with pytest.raises(ValueError):
        SynthConfig(n_scenes=-1)
    for jitter in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SynthConfig(jitter=jitter)


def test_category_ids_cover_taxonomy():
    assert set(CATEGORY_IDS) == set(DetectionClass)
    assert len(set(CATEGORY_IDS.values())) == 9


def test_oracle_empty_scene():
    verdict = oracle_per_object([], [], 0.5, 0.5)
    assert verdict.tp_mon == verdict.fp_mon == verdict.fn_mon == ()
    fp_counts, fn_counts, confusion, bal = oracle_metrics([], 0.5, 0.5, 0.5)
    assert fp_counts == fn_counts == BinaryCounts(0, 0, 0, 0)
    assert bal.fp_balance == 0 and bal.fn_balance == 0


def test_oracle_metrics_hand_checked_scene():
    # One good person with its torso, one ghost person, one stray part over
    # a second (missed) ground-truth person.
    from partmon.datamodel import Scene

    gt_good = ann(Box(0, 0, 100, 200), image_id=1, ann_id=1)
    gt_missed = ann(Box(300, 0, 100, 200), image_id=1, ann_id=2)
    good = det(Box(0, 0, 100, 200), image_id=1, det_id=0)
    ghost = det(Box(600, 0, 80, 160), image_id=1, det_id=1)
    torso = part_det(Box(25, 60, 50, 80), image_id=1, det_id=0)
    missed_torso = part_det(Box(325, 60, 50, 80), image_id=1, det_id=1)
    scene = Scene(image_id=1, persons=(good, ghost), parts=(torso, missed_torso),
                  gt=(gt_good, gt_missed))

    fp_counts, fn_counts, confusion, bal = oracle_metrics([scene], 0.5, 0.5, 0.5)
    # The ghost has no part -> fp alert, correct (the scene has a ghost).
    assert (fp_counts.tp, fp_counts.fp, fp_counts.fn, fp_counts.tn) == (1, 0, 0, 0)
    # The stray torso matches no person detection -> fn alert, correct.
    assert (fn_counts.tp, fn_counts.fp, fn_counts.fn, fn_counts.tn) == (1, 0, 0, 0)
    assert confusion.tp_gt_tp_mon == 1  # good person kept
    assert confusion.fp_gt_fp_mon == 1  # ghost flagged
    assert confusion.fn_gt_fn_mon == 1  # missed person located via its torso
    assert confusion.tn_gt_fn_mon == 0  # the orphan torso overlaps a GT person
    assert bal.fp_balance == 1 and bal.fn_balance == 1


def test_scene_labels_container_fields():
    labels = SceneLabels(1, (0,), (1,), (2,), (3,))
    assert labels.image_id == 1
    assert labels.ghost_part_det_ids == (3,)
