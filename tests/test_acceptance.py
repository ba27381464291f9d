"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines alongside pytest's own verdicts.
"""

import random
import time

import pytest
from click.testing import CliRunner

from partmon.calibration import build_operating_point, select_alphas, select_confidence_threshold
from partmon.cli import cli
from partmon.datamodel import (
    FilterMode,
    GroundTruth,
    filter_images_by_min_person_area,
    load_category_map,
    load_detections,
    load_ground_truth,
)
from partmon.evaluation import BinaryCounts, ObjectConfusion, balances, binary_metrics
from partmon.geometry import Box, iou
from partmon.monitor import per_image_rule, per_object_rule
from partmon.oracle import oracle_alphas, oracle_per_image, oracle_per_object, oracle_threshold
from partmon.partition import MatchingMode, partition
from partmon.synth import SynthConfig, generate, write_corpus

from conftest import ann, det

runner = CliRunner()

ALPHA_GRID_19 = [round(k * 0.05, 10) for k in range(1, 20)]

# Reference per-image evaluation rows, three detector architectures on two
# public benchmarks: (dataset, arch, system, total_images,
#   fp_positives, fp_tp, fp_fp, fp_precision, fp_recall, fp_mcc,
#   fn_positives, fn_tp, fn_fp, fn_precision, fn_recall, fn_mcc)
PER_IMAGE_ROWS = [
    ("coco", "fcos", "baseline", 11691, 1478, 545, 751, 0.42, 0.37, 0.31, 3885, 373, 55, 0.87, 0.1, 0.22),
    ("coco", "fcos", "multi", 11691, 1478, 304, 117, 0.72, 0.21, 0.35, 3885, 1698, 495, 0.77, 0.44, 0.45),
    ("coco", "fcos", "single", 11691, 943, 54, 49, 0.52, 0.06, 0.15, 3834, 1982, 355, 0.85, 0.52, 0.55),
    ("coco", "yolox", "baseline", 11691, 799, 151, 278, 0.35, 0.19, 0.22, 3221, 646, 110, 0.85, 0.2, 0.34),
    ("coco", "yolox", "multi", 11691, 799, 139, 100, 0.58, 0.17, 0.29, 3221, 1283, 228, 0.85, 0.4, 0.49),
    ("coco", "yolox", "single", 11691, 432, 9, 18, 0.33, 0.02, 0.08, 3165, 1422, 274, 0.84, 0.45, 0.53),
    ("coco", "c-rcnn", "baseline", 11691, 1113, 328, 455, 0.42, 0.29, 0.3, 3903, 132, 20, 0.87, 0.03, 0.13),
    ("coco", "c-rcnn", "multi", 11691, 1113, 104, 83, 0.56, 0.09, 0.2, 3903, 1651, 440, 0.79, 0.42, 0.45),
    ("coco", "c-rcnn", "single", 11691, 639, 12, 28, 0.3, 0.02, 0.06, 3975, 2069, 475, 0.81, 0.52, 0.53),
    ("voc", "fcos", "baseline", 2971, 392, 163, 277, 0.37, 0.42, 0.29, 1039, 188, 93, 0.67, 0.18, 0.22),
    ("voc", "fcos", "multi", 2971, 392, 74, 17, 0.81, 0.19, 0.36, 1039, 448, 158, 0.74, 0.43, 0.41),
    ("voc", "fcos", "single", 2971, 295, 12, 13, 0.48, 0.04, 0.12, 1035, 508, 137, 0.79, 0.49, 0.49),
    ("voc", "yolox", "baseline", 2971, 192, 29, 77, 0.27, 0.15, 0.16, 773, 174, 46, 0.79, 0.23, 0.34),
    ("voc", "yolox", "multi", 2971, 192, 28, 41, 0.41, 0.15, 0.21, 773, 252, 71, 0.78, 0.33, 0.41),
    ("voc", "yolox", "single", 2971, 96, 3, 3, 0.5, 0.03, 0.12, 770, 345, 104, 0.77, 0.45, 0.49),
    ("voc", "c-rcnn", "baseline", 2971, 304, 95, 127, 0.43, 0.31, 0.31, 1005, 59, 18, 0.77, 0.06, 0.15),
    ("voc", "c-rcnn", "multi", 2971, 304, 22, 19, 0.54, 0.07, 0.17, 1005, 377, 154, 0.71, 0.38, 0.37),
    ("voc", "c-rcnn", "single", 2971, 174, 6, 13, 0.32, 0.03, 0.09, 1046, 512, 170, 0.75, 0.49, 0.46),
]

# Reference per-object cells and balance rows: (label, tp_gt_fp_mon,
#   fp_gt_fp_mon, fn_gt_fn_mon, tn_gt_fn_mon, printed_fp_balance,
#   printed_fn_balance). One row's printed FN balance disagrees with its own
# cells by one (279 vs 278); the cell-derived value is asserted.
PER_OBJECT_ROWS = [
    ("coco/fcos/baseline", 447, 319, 320, 42, -128, 279),
    ("coco/fcos/multi", 138, 309, 2352, 620, 171, 1732),
    ("coco/fcos/single", 46, 48, 2487, 698, 2, 1789),
    ("coco/yolox/baseline", 170, 81, 574, 81, -89, 493),
    ("coco/yolox/multi", 102, 146, 1538, 315, 44, 1223),
    ("coco/yolox/single", 16, 8, 1721, 351, -8, 1370),
    ("coco/c-rcnn/baseline", 346, 224, 138, 19, -122, 119),
    ("coco/c-rcnn/multi", 93, 105, 1768, 689, 12, 1079),
    ("coco/c-rcnn/single", 22, 10, 2477, 833, -12, 1644),
    ("voc/fcos/baseline", 137, 70, 97, 17, -67, 80),
    ("voc/fcos/multi", 21, 71, 621, 250, 50, 371),
    ("voc/fcos/single", 12, 10, 685, 288, -2, 397),
    ("voc/yolox/baseline", 38, 14, 139, 35, -24, 104),
    ("voc/yolox/multi", 38, 22, 370, 171, -16, 199),
    ("voc/yolox/single", 3, 3, 413, 139, 0, 274),
    ("voc/c-rcnn/baseline", 82, 50, 41, 14, -32, 27),
    ("voc/c-rcnn/multi", 20, 22, 384, 253, 2, 131),
    ("voc/c-rcnn/single", 13, 6, 583, 283, -7, 300),
]
KNOWN_BALANCE_DISCREPANCY = "coco/fcos/baseline"


@pytest.fixture(scope="module")
def thousand_scenes():
    scenes = []
    for i in range(10):
        config = SynthConfig(
            seed=1000 + i,
            n_scenes=100,
            drop_person_prob=0.2 + (i % 3) * 0.1,
            ghost_person_prob=0.1 * (i % 4),
            ghost_part_prob=0.1 * (i % 3),
            jitter=float(i % 4),
        )
        scenes.extend(generate(config).scenes())
    return scenes


@pytest.fixture(scope="module")
def alpha_pairs():
    rng = random.Random(42)
    return [(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)) for _ in range(10)]


def test_c1_per_image_metric_golden(capsys):
    started = time.monotonic()
    checked = 0
    for row in PER_IMAGE_ROWS:
        total = row[3]
        for positives, tp, fp, precision, recall, mcc in (row[4:10], row[10:16]):
            counts = BinaryCounts(tp=tp, fp=fp, fn=positives - tp, tn=total - positives - fp)
            got_p, got_r, got_m = binary_metrics(counts)
            assert got_p == pytest.approx(precision, abs=0.005)
            assert got_r == pytest.approx(recall, abs=0.005)
            assert got_m == pytest.approx(mcc, abs=0.005)
            checked += 3
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\n[acceptance] C1 PASS - {len(PER_IMAGE_ROWS)} per-image rows, "
              f"{checked} published values within +-0.005 ({elapsed:.3f}s)")


def test_c2_balance_golden(capsys):
    started = time.monotonic()
    flagged = []
    for label, tp_fp_mon, fp_fp_mon, fn_fn_mon, tn_fn_mon, printed_fp, printed_fn in PER_OBJECT_ROWS:
        confusion = ObjectConfusion(
            tp_gt_tp_mon=0, tp_gt_fp_mon=tp_fp_mon,
            fp_gt_tp_mon=0, fp_gt_fp_mon=fp_fp_mon,
            fn_gt_fn_mon=fn_fn_mon, tn_gt_fn_mon=tn_fn_mon,
        )
        got = balances(confusion)
        assert got.fp_balance == fp_fp_mon - tp_fp_mon == printed_fp
        assert got.fn_balance == fn_fn_mon - tn_fn_mon
        if got.fn_balance != printed_fn:
            flagged.append((label, got.fn_balance, printed_fn))
    # Exactly the one known print/cell disagreement, asserted at the
    # cell-derived value.
    assert flagged == [(KNOWN_BALANCE_DISCREPANCY, 278, 279)]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"[acceptance] C2 PASS - 36 balances match their cells exactly; known "
              f"print discrepancy {KNOWN_BALANCE_DISCREPANCY} asserted as 278 ({elapsed:.3f}s)")


def test_c3_oracle_equivalence(thousand_scenes, alpha_pairs, capsys):
    started = time.monotonic()
    mismatches = 0
    for scene in thousand_scenes:
        for alpha_fp, alpha_fn in alpha_pairs:
            alert = per_image_rule(scene.persons, scene.parts, alpha_fp, alpha_fn)
            if alert != oracle_per_image(scene.persons, scene.parts, alpha_fp, alpha_fn):
                mismatches += 1
            got = per_object_rule(scene.persons, scene.parts, alpha_fp, alpha_fn)
            want = oracle_per_object(scene.persons, scene.parts, alpha_fp, alpha_fn)
            if (got.tp_mon, got.fp_mon, got.fn_mon) != (want.tp_mon, want.fp_mon, want.fn_mon):
                mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 30.0
    checks = len(thousand_scenes) * len(alpha_pairs)
    with capsys.disabled():
        print(f"[acceptance] C3 PASS - {len(thousand_scenes)} scenes x {len(alpha_pairs)} "
              f"alpha pairs, {checks} rule evaluations, 0 mismatches ({elapsed:.1f}s)")


def test_c4_cross_rule_consistency(thousand_scenes, alpha_pairs, capsys):
    violations = 0
    for scene in thousand_scenes:
        for alpha_fp, alpha_fn in alpha_pairs:
            alert = per_image_rule(scene.persons, scene.parts, alpha_fp, alpha_fn)
            verdict = per_object_rule(scene.persons, scene.parts, alpha_fp, alpha_fn)
            if alert.alert_fp != (len(verdict.fp_mon) > 0):
                violations += 1
            if alert.alert_fn != (len(verdict.fn_mon) > 0):
                violations += 1
    assert violations == 0
    with capsys.disabled():
        print(f"[acceptance] C4 PASS - alert_fp <=> fp_mon and alert_fn <=> fn_mon on "
              f"{len(thousand_scenes) * len(alpha_pairs)} scene/alpha combinations, 0 violations")


def test_c5_partition_properties(thousand_scenes, capsys):
    # Exhaustiveness on every generated scene.
    for scene in thousand_scenes:
        result = partition(scene.persons, scene.gt_persons(), 0.5)
        assert len(result.tp_gt) + len(result.fp_gt) == len(scene.persons)

    # IoU exactly tau falls on the strict side: detection FP, ground truth FN.
    gt = [ann(Box(0, 0, 10, 10))]
    boundary = det(Box(0, 0, 10, 5))
    assert iou(boundary.box, gt[0].box) == 0.5
    result = partition([boundary], gt, tau=0.5)
    assert result.fp_gt == (boundary,) and result.fn_gt == tuple(gt) and result.tp_gt == ()

    # Monotonicity over a 10-point tau grid on a subsample.
    tau_grid = [round(0.05 + 0.1 * k, 10) for k in range(10)]
    for scene in thousand_scenes[::37]:
        previous = None
        for tau in tau_grid:
            result = partition(scene.persons, scene.gt_persons(), tau)
            tp_ids = {id(d) for d in result.tp_gt}
            fn_ids = {id(g) for g in result.fn_gt}
            if previous is not None:
                assert tp_ids <= previous[0]
                assert fn_ids >= previous[1]
            previous = (tp_ids, fn_ids)
    with capsys.disabled():
        print(f"[acceptance] C5 PASS - exhaustive partition on {len(thousand_scenes)} scenes, "
              f"strict boundary at IoU=tau, monotone over {len(tau_grid)}-point tau grid")


def test_c6_monitor_monotonicity(thousand_scenes, capsys):
    scenes = thousand_scenes[:100]
    for scene in scenes:
        prev_fp, prev_fn = None, None
        fn_at_fixed = per_object_rule(scene.persons, scene.parts, 0.5, 0.5).fn_mon
        fp_at_fixed = per_object_rule(scene.persons, scene.parts, 0.5, 0.5).fp_mon
        for alpha in ALPHA_GRID_19:
            sweep_fp = per_object_rule(scene.persons, scene.parts, alpha, 0.5)
            sweep_fn = per_object_rule(scene.persons, scene.parts, 0.5, alpha)
            fp_ids = {id(d) for d in sweep_fp.fp_mon}
            fn_ids = {id(d) for d in sweep_fn.fn_mon}
            if prev_fp is not None:
                assert fp_ids >= prev_fp
                assert fn_ids >= prev_fn
            prev_fp, prev_fn = fp_ids, fn_ids
            # Independence: the off-axis set never moves.
            assert sweep_fp.fn_mon == fn_at_fixed
            assert sweep_fn.fp_mon == fp_at_fixed
    with capsys.disabled():
        print(f"[acceptance] C6 PASS - fp_mon/fn_mon non-shrinking and mutually independent "
              f"over a {len(ALPHA_GRID_19)}-point alpha grid on {len(scenes)} scenes")


def test_c7_calibration_optimality_and_determinism(tmp_path, capsys):
    for seed in range(50):
        corpus = generate(SynthConfig(seed=3000 + seed, n_scenes=8, drop_person_prob=0.25,
                                      ghost_person_prob=0.3, ghost_part_prob=0.3,
                                      jitter=float(seed % 3)))
        scenes = list(corpus.scenes())

        # Confidence thresholds: the independent argmax must agree, including tie handling.
        dets_by_class, gts_by_class = {}, {}
        for scene in scenes:
            for d in list(scene.persons) + list(scene.parts):
                dets_by_class.setdefault(d.category, []).append(d)
            for a in scene.gt:
                gts_by_class.setdefault(a.category, []).append(a)
        for cls, dets in dets_by_class.items():
            gts = gts_by_class.get(cls, [])
            if not gts:
                continue
            assert select_confidence_threshold(dets, gts, tau=0.5) == oracle_threshold(dets, gts, 0.5)

        # Alphas: the independent argmax must agree, including tie handling.
        partitions = [partition(s.persons, s.gt_persons(), 0.5) for s in scenes]
        assert select_alphas(scenes, partitions, grid_step=0.05) == oracle_alphas(
            scenes, 0.5, MatchingMode.EXISTENTIAL, 0.05)

        # Thread-count independence of the whole calibration.
        reference = build_operating_point(scenes, threads=1)
        for threads in (2, 4, 8):
            assert build_operating_point(scenes, threads=threads) == reference

    # CLI-level: --threads 1..8 produce byte-identical operating points.
    corpus_dir = tmp_path / "corpus"
    assert runner.invoke(cli, ["synth", "--seed", "77", "--n-scenes", "8",
                               "--out", str(corpus_dir)]).exit_code == 0
    blobs = set()
    for threads in range(1, 9):
        out = tmp_path / f"t{threads}" / "op.json"
        out.parent.mkdir()
        result = runner.invoke(cli, [
            "calibrate", "--gt", str(corpus_dir / "gt.json"),
            "--persons", str(corpus_dir / "persons.json"),
            "--parts", str(corpus_dir / "parts.json"),
            "--category-map", str(corpus_dir / "category_map.json"),
            "--threads", str(threads), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        blobs.add(out.read_bytes())
    assert len(blobs) == 1
    with capsys.disabled():
        print("[acceptance] C7 PASS - thresholds and alphas equal oracle_threshold and oracle_alphas, "
              "ties included, on 50 corpora; identical results for --threads 1..8")


def test_c8_end_to_end_determinism_and_exit_codes(tmp_path, monkeypatch, capsys):
    # Both pipelines use identical relative paths, just from two different
    # working directories, so every output including the manifests must be
    # byte-identical.
    artifacts = ("op.json", "op.json.manifest.json", "image.json", "image.csv",
                 "object.json", "object.json.manifest.json")
    reports = {}
    for run in ("run1", "run2"):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        assert runner.invoke(cli, ["synth", "--seed", "123", "--n-scenes", "12",
                                   "--out", "corpus"]).exit_code == 0
        args = ["--gt", "corpus/gt.json", "--persons", "corpus/persons.json",
                "--parts", "corpus/parts.json", "--category-map", "corpus/category_map.json"]
        assert runner.invoke(cli, ["calibrate", *args, "--out", "op.json"]).exit_code == 0
        for protocol, fmt, name in (("per-image", "json", "image.json"),
                                    ("per-image", "csv", "image.csv"),
                                    ("per-object", "json", "object.json")):
            result = runner.invoke(cli, [
                "evaluate", *args, "--operating-point", "op.json",
                "--protocol", protocol, "--format", fmt, "--out", name,
            ])
            assert result.exit_code == 0, result.output
        reports[run] = {name: (base / name).read_bytes() for name in artifacts}
    for name in artifacts:
        assert reports["run1"][name] == reports["run2"][name], name

    # Exit-code contract.
    monkeypatch.chdir(tmp_path)
    missing = runner.invoke(cli, ["evaluate", "--gt", str(tmp_path / "missing.json"),
                                  "--persons", "p", "--parts", "q", "--category-map", "m",
                                  "--operating-point", "o", "--out", str(tmp_path / "r.json")])
    assert missing.exit_code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    corpus = tmp_path / "run1" / "corpus"
    malformed = runner.invoke(cli, [
        "calibrate", "--gt", str(broken), "--persons", str(corpus / "persons.json"),
        "--parts", str(corpus / "parts.json"),
        "--category-map", str(corpus / "category_map.json"),
        "--out", str(tmp_path / "op.json"),
    ])
    assert malformed.exit_code == 2
    ok = runner.invoke(cli, ["validate", "--category-map", str(corpus / "category_map.json")])
    assert ok.exit_code == 0
    with capsys.disabled():
        print("[acceptance] C8 PASS - synth->calibrate->evaluate twice: all six artifacts "
              "byte-identical; exit codes 0/2/2 for ok/missing-file/malformed-JSON")


def test_c9_ingestion_round_trip_and_min_area_filter(tmp_path, capsys):
    corpus = generate(SynthConfig(seed=321, n_scenes=15, jitter=1.5,
                                  ghost_person_prob=0.3, ghost_part_prob=0.3))
    paths = write_corpus(corpus, tmp_path / "corpus")
    category_map = load_category_map(paths["category_map"])
    assert load_ground_truth(paths["gt"], category_map) == corpus.gt
    assert load_detections(paths["persons"], category_map) == corpus.person_dets
    assert load_detections(paths["parts"], category_map) == corpus.part_dets

    # Min-area modes on a constructed fixture at the published default cutoff.
    def person(img, area_px, ann_id):
        return ann(Box(0, 0, area_px / 10, 10), image_id=img, ann_id=ann_id)

    gt = GroundTruth(
        annotations=(
            person(1, 3000, 1), person(1, 5000, 2),  # all above -> retained
            person(2, 2000, 3),                       # small person -> dropped
            person(3, 2247, 4),                       # boundary -> retained
            person(4, 9000, 5), person(4, 100, 6),    # mixed -> dropped
        ),
        images=(1, 2, 3, 4, 5),                       # image 5 has no persons
    )
    assert filter_images_by_min_person_area(gt, 2247, FilterMode.DROP_IF_ANY_BELOW) == {1, 3, 5}
    assert filter_images_by_min_person_area(gt, 2247, FilterMode.REQUIRE_ALL_ABOVE) == {1, 3}
    with capsys.disabled():
        print("[acceptance] C9 PASS - corpora round-trip through COCO-style JSON; min-area "
              "2247 filter behaves per both modes on constructed fixtures")
