import json

import pytest

from partmon.cli import write_text
from partmon.datamodel import DetectionClass, Scene
from partmon.errors import ValidationError
from partmon.evaluation import (
    Balances,
    BinaryCounts,
    ObjectConfusion,
    PerImageResult,
    PerObjectResult,
    balances,
    binary_metrics,
    mcc_from_counts,
    object_confusion,
    per_image_counts,
    render_report,
)
from partmon.geometry import Box
from partmon.monitor import AlertPair, per_image_rule, per_object_rule
from partmon.oracle import oracle_metrics
from partmon.partition import partition
from partmon.synth import SynthConfig, generate

from conftest import ann, det, part_det


def test_binary_metrics_published_count_row():
    # 545 correct alerts, 751 false alerts, 1478 positive images of 11691.
    counts = BinaryCounts(tp=545, fp=751, fn=1478 - 545, tn=11691 - 1478 - 751)
    precision, recall, mcc = binary_metrics(counts)
    assert precision == pytest.approx(0.42, abs=0.005)
    assert recall == pytest.approx(0.37, abs=0.005)
    assert mcc == pytest.approx(0.31, abs=0.005)


def test_binary_metrics_degenerate_and_perfect():
    assert binary_metrics(BinaryCounts(0, 0, 0, 10)) == (0.0, 0.0, 0.0)
    assert binary_metrics(BinaryCounts(5, 0, 0, 5)) == (1.0, 1.0, 1.0)


def test_mcc_zero_denominator_convention():
    assert mcc_from_counts(3, 0, 0, 0) == 0.0
    assert mcc_from_counts(0, 0, 3, 5) == 0.0
    assert mcc_from_counts(0, 2, 3, 0) == -1.0  # fully anti-correlated, not degenerate


def test_per_image_counts_tallies():
    scenes = [Scene(image_id=1), Scene(image_id=2)]
    ghost = det(Box(0, 0, 10, 10), image_id=1)
    partitions = [
        partition([ghost], [], 0.5),  # one ghost -> fp positive
        partition([], [ann(Box(0, 0, 10, 10), image_id=2)], 0.5),  # miss -> fn positive
    ]
    alerts = [AlertPair(alert_fp=True, alert_fn=False), AlertPair(alert_fp=False, alert_fn=True)]
    fp_counts, fn_counts = per_image_counts(scenes, partitions, alerts)
    assert fp_counts == BinaryCounts(tp=1, fp=0, fn=0, tn=1)
    assert fn_counts == BinaryCounts(tp=1, fp=0, fn=0, tn=1)


def test_per_image_counts_false_alert_on_clean_scene():
    scenes = [Scene(image_id=1)]
    partitions = [partition([], [], 0.5)]
    alerts = [AlertPair(alert_fp=False, alert_fn=True)]
    _, fn_counts = per_image_counts(scenes, partitions, alerts)
    assert fn_counts == BinaryCounts(tp=0, fp=1, fn=0, tn=0)


def test_per_image_counts_rejects_mismatched_lists():
    with pytest.raises(ValidationError):
        per_image_counts([Scene(image_id=1)], [], [])


def test_balances_published_cells():
    confusion = ObjectConfusion(
        tp_gt_tp_mon=13635, tp_gt_fp_mon=138,
        fp_gt_tp_mon=1270, fp_gt_fp_mon=309,
        fn_gt_fn_mon=2352, tn_gt_fn_mon=620,
    )
    assert balances(confusion) == Balances(fp_balance=171, fn_balance=1732)
    assert balances(ObjectConfusion(0, 0, 0, 0, 0, 0)) == Balances(0, 0)


def test_object_confusion_verdict_equals_partition():
    # The monitor flags exactly the ghost: fp_mon == fp_gt.
    gt_person = ann(Box(0, 0, 100, 200), image_id=1, ann_id=1)
    good = det(Box(0, 0, 100, 200), image_id=1, det_id=0)
    ghost = det(Box(500, 0, 80, 160), image_id=1, det_id=1)
    torso = part_det(Box(25, 60, 50, 80), image_id=1, det_id=0)
    scene = Scene(image_id=1, persons=(good, ghost), parts=(torso,), gt=(gt_person,))
    part = partition(scene.persons, scene.gt_persons(), 0.5)
    verdict = per_object_rule(scene.persons, scene.parts, 0.5, 0.5)
    confusion = object_confusion([scene], [part], [verdict], alpha_fn=0.5)
    assert confusion == ObjectConfusion(
        tp_gt_tp_mon=1, tp_gt_fp_mon=0, fp_gt_tp_mon=0, fp_gt_fp_mon=1,
        fn_gt_fn_mon=0, tn_gt_fn_mon=0,
    )


def test_object_confusion_detected_miss_and_ghost_part():
    # A missed person whose torso was still detected, plus a stray part.
    gt_person = ann(Box(0, 0, 100, 200), image_id=1, ann_id=1)
    torso = part_det(Box(25, 60, 50, 80), image_id=1, det_id=0)
    stray = part_det(Box(900, 900, 30, 30), image_id=1, det_id=1)
    scene = Scene(image_id=1, persons=(), parts=(torso, stray), gt=(gt_person,))
    part = partition(scene.persons, scene.gt_persons(), 0.5)
    verdict = per_object_rule(scene.persons, scene.parts, 0.5, 0.5)
    confusion = object_confusion([scene], [part], [verdict], alpha_fn=0.5)
    assert confusion.fn_gt_fn_mon == 1
    assert confusion.tn_gt_fn_mon == 1


def test_object_confusion_ghost_anchor_widens_with_all_classes():
    # The stray part overlaps a part annotation but no person annotation.
    part_gt = ann(Box(900, 900, 30, 30), image_id=1, category=DetectionClass.HAND, ann_id=2)
    stray = part_det(Box(900, 900, 30, 30), image_id=1, det_id=0)
    scene = Scene(image_id=1, persons=(), parts=(stray,), gt=(part_gt,))
    part = partition(scene.persons, scene.gt_persons(), 0.5)
    verdict = per_object_rule(scene.persons, scene.parts, 0.5, 0.5)
    person_only = object_confusion([scene], [part], [verdict], alpha_fn=0.5)
    widened = object_confusion([scene], [part], [verdict], alpha_fn=0.5, ghost_all_classes=True)
    assert person_only.tn_gt_fn_mon == 1
    assert widened.tn_gt_fn_mon == 0


def test_object_confusion_duplicate_boxes_do_not_alias():
    # Two identical ghost boxes: identity-based counting must see both.
    g1 = det(Box(0, 0, 10, 10), image_id=1, det_id=0)
    g2 = det(Box(0, 0, 10, 10), image_id=1, det_id=1)
    scene = Scene(image_id=1, persons=(g1, g2), parts=())
    part = partition(scene.persons, scene.gt_persons(), 0.5)
    verdict = per_object_rule(scene.persons, scene.parts, 0.5, 0.5)
    confusion = object_confusion([scene], [part], [verdict], alpha_fn=0.5)
    assert confusion.fp_gt_fp_mon == 2


def test_object_confusion_rejects_mismatched_detections():
    scene = Scene(image_id=1, persons=(det(Box(0, 0, 10, 10)),))
    part = partition(scene.persons, (), 0.5)
    verdict = per_object_rule((), (), 0.5, 0.5)  # covers zero persons
    with pytest.raises(ValidationError):
        object_confusion([scene], [part], [verdict], alpha_fn=0.5)


def test_object_confusion_rejects_lists_of_different_lengths():
    scene = Scene(image_id=1, persons=(det(Box(0, 0, 10, 10)),))
    part = partition(scene.persons, (), 0.5)
    with pytest.raises(ValidationError, match=r"^mismatched inputs: 1 scenes, 1 partitions, 0 verdicts$"):
        object_confusion([scene], [part], [], alpha_fn=0.5)


@pytest.mark.parametrize("alpha_fn", [0.0, 1.0, -1.0])
def test_object_confusion_refuses_the_alpha_fn_the_rules_refuse(alpha_fn):
    # At alpha_fn 0 the orphan torso, far from the missed person, would count as recovering it.
    scene = Scene(image_id=1, parts=(part_det(Box(900, 900, 30, 30), image_id=1, det_id=0),),
                  gt=(ann(Box(0, 0, 100, 200), image_id=1, ann_id=1),))
    part = partition(scene.persons, scene.gt_persons(), 0.5)
    verdict = per_object_rule(scene.persons, scene.parts, 0.5, 0.5)
    message = rf"^alpha_fn must lie in \(0, 1\), got {alpha_fn}$"
    with pytest.raises(ValueError, match=message):
        per_object_rule(scene.persons, scene.parts, 0.5, alpha_fn)
    with pytest.raises(ValueError, match=message):
        object_confusion([scene], [part], [verdict], alpha_fn=alpha_fn)


@pytest.mark.parametrize("seed", range(5))
def test_corpus_accounting_matches_oracle(seed):
    corpus = generate(SynthConfig(seed=200 + seed, n_scenes=20, drop_person_prob=0.3,
                                  ghost_person_prob=0.4, ghost_part_prob=0.4, jitter=2.0))
    scenes = list(corpus.scenes())
    alpha_fp, alpha_fn, tau = 0.25, 0.4, 0.5
    partitions = [partition(s.persons, s.gt_persons(), tau) for s in scenes]
    alerts = [per_image_rule(s.persons, s.parts, alpha_fp, alpha_fn) for s in scenes]
    verdicts = [per_object_rule(s.persons, s.parts, alpha_fp, alpha_fn) for s in scenes]

    fp_counts, fn_counts = per_image_counts(scenes, partitions, alerts)
    confusion = object_confusion(scenes, partitions, verdicts, alpha_fn)
    want_fp, want_fn, want_confusion, want_balances = oracle_metrics(scenes, tau, alpha_fp, alpha_fn)
    assert fp_counts == want_fp
    assert fn_counts == want_fn
    assert confusion == want_confusion
    assert balances(confusion) == want_balances

    # Row sums tie the confusion cells back to the partition set sizes.
    assert confusion.tp_gt_tp_mon + confusion.tp_gt_fp_mon == sum(len(p.tp_gt) for p in partitions)
    assert confusion.fp_gt_tp_mon + confusion.fp_gt_fp_mon == sum(len(p.fp_gt) for p in partitions)


def test_round_ratio_half_even():
    # Precisions 2469/20000 = 0.12345 and 2471/20000 = 0.12355, recall 2469/7407 = 1/3.
    result = PerImageResult(
        system="x", total_images=0,
        fp_alert=BinaryCounts(2469, 17531, 4938, 0), fn_alert=BinaryCounts(2471, 17529, 0, 0),
    )
    report = json.loads(render_report(result, "json"))
    assert report["fp_alert"]["precision"] == 0.1234
    assert report["fn_alert"]["precision"] == 0.1236
    assert report["fp_alert"]["recall"] == 0.3333


def test_per_image_report_csv_shape():
    result = PerImageResult(
        system="md",
        total_images=4,
        fp_alert=BinaryCounts(1, 1, 1, 1),
        fn_alert=BinaryCounts(2, 0, 0, 2),
    )
    text = render_report(result, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "system,alert,tp,fp,fn,tn,precision,recall,mcc"
    assert lines[1] == "md,fp,1,1,1,1,0.5000,0.5000,0.0000"
    assert lines[2] == "md,fn,2,0,0,2,1.0000,1.0000,1.0000"


def test_per_object_report_json_shape():
    result = PerObjectResult(
        system="md",
        confusion=ObjectConfusion(5, 1, 2, 3, 4, 2),
        balances=Balances(fp_balance=2, fn_balance=2),
    )
    report = json.loads(render_report(result, "json"))
    assert report["confusion"] == {
        "tp_gt_tp_mon": 5, "tp_gt_fp_mon": 1, "fp_gt_tp_mon": 2,
        "fp_gt_fp_mon": 3, "fn_gt_fn_mon": 4, "tn_gt_fn_mon": 2,
    }
    assert report["balances"] == {"fp_balance": 2, "fn_balance": 2}


def test_emit_report_is_byte_stable(tmp_path):
    result = PerImageResult(
        system="x", total_images=3,
        fp_alert=BinaryCounts(1, 0, 1, 1), fn_alert=BinaryCounts(0, 1, 0, 2),
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_text(a, [render_report(result, "json", manifest={"command": "test"})])
    write_text(b, [render_report(result, "json", manifest={"command": "test"})])
    assert a.read_bytes() == b.read_bytes()


def test_emit_report_rejects_unknown_format_and_unwritable_path(tmp_path):
    result = PerObjectResult("x", ObjectConfusion(0, 0, 0, 0, 0, 0), Balances(0, 0))
    with pytest.raises(ValidationError):
        render_report(result, "xml")
    with pytest.raises(ValidationError):
        write_text(tmp_path / "no_such_dir" / "r.json", [render_report(result, "json")])
