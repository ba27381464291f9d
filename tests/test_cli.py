import gc
import itertools
import json
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import partmon.calibration
import partmon.cli as cli_module
import partmon.synth
from partmon.cli import cli
from partmon.datamodel import DetectionClass
from partmon.geometry import intersection_area, iou
from partmon.oracle import pipeline, pipeline_scenes
from partmon.synth import generate

runner = CliRunner()

ZERO_OP = {
    "conf": {cls.value: 0.0 for cls in DetectionClass},
    "alpha_fp": 0.5,
    "alpha_fn": 0.5,
    "tau": 0.5,
}


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def corpus_dir(tmp_path):
    result = runner.invoke(cli, ["synth", "--seed", "5", "--n-scenes", "10", "--out", str(tmp_path / "corpus")])
    assert result.exit_code == 0, result.output
    return tmp_path / "corpus"


def corpus_args(corpus_dir):
    return [
        "--gt", str(corpus_dir / "gt.json"),
        "--persons", str(corpus_dir / "persons.json"),
        "--parts", str(corpus_dir / "parts.json"),
        "--category-map", str(corpus_dir / "category_map.json"),
    ]


def test_synth_is_deterministic(tmp_path):
    for name in ("a", "b"):
        result = runner.invoke(cli, ["synth", "--seed", "9", "--n-scenes", "6", "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    for filename in ("gt.json", "persons.json", "parts.json", "labels.json", "category_map.json"):
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()


@pytest.mark.parametrize("command, flag, value, message", [
    ("synth", "--persons-per-scene", "4:2", "--persons-per-scene expects LO:HI with 0 <= LO <= HI, got '4:2'"),
    ("synth", "--persons-per-scene", "-1:2", "--persons-per-scene expects LO:HI with 0 <= LO <= HI, got '-1:2'"),
    ("synth", "--parts-per-person", "-3", "--parts-per-person expects LO:HI with 0 <= LO <= HI, got '-3'"),
    ("synth", "--jitter", "nan", "Invalid value for '--jitter': 'nan' is not a finite number"),
    ("synth", "--jitter", "inf", "Invalid value for '--jitter': 'inf' is not a finite number"),
    ("synth", "--drop-person-prob", "nan", "Invalid value for '--drop-person-prob': 'nan' is not a finite number"),
    ("calibrate", "--tau", "nan", "Invalid value for '--tau': 'nan' is not a finite number"),
    ("calibrate", "--min-area", "nan", "Invalid value for '--min-area': 'nan' is not a finite number"),
    ("calibrate", "--alpha-grid-step", "nan", "Invalid value for '--alpha-grid-step': 'nan' is not a finite number"),
])
def test_bad_flag_value_exits_2(tmp_path, corpus_dir, command, flag, value, message):
    args = ["synth"] if command == "synth" else ["calibrate", *corpus_args(corpus_dir)]
    result = runner.invoke(cli, [*args, flag, value, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines()[-1] == "Error: " + message
    assert not (tmp_path / "out").exists()


def test_synth_zero_scenes_is_valid(tmp_path):
    result = runner.invoke(cli, ["synth", "--n-scenes", "0", "--out", str(tmp_path / "empty")])
    assert result.exit_code == 0, result.output
    gt = json.loads((tmp_path / "empty" / "gt.json").read_text())
    assert gt["annotations"] == [] and gt["images"] == []
    assert len(gt["categories"]) == 9


def test_calibrate_writes_reproducible_operating_point(tmp_path, corpus_dir):
    out1, out2 = tmp_path / "op1.json", tmp_path / "op2.json"
    for out in (out1, out2):
        result = runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir), "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert out1.read_bytes() == out2.read_bytes()
    op = json.loads(out1.read_text())
    assert set(op) == {"conf", "alpha_fp", "alpha_fn", "tau"}
    assert (tmp_path / "op1.json.manifest.json").exists()


@pytest.mark.parametrize("strict", [False, True], ids=["keep-at-least", "keep-above"])
def test_calibrate_writes_a_zero_threshold_as_positive_zero(tmp_path, strict):
    # Two images, each with a person and a Torso matched by a detection; on image 1 both detections score -0.0,
    # which the loaders accept (0.0 <= -0.0). Both classes calibrate to the zero candidate, which is +0.0.
    person, torso = [0, 0, 40, 80], [10, 20, 20, 30]
    entries = [(image_id, category, box) for image_id in (1, 2) for category, box in ((1, person), (2, torso))]
    gt = write_json(tmp_path / "gt.json", {"images": [{"id": 1}, {"id": 2}], "annotations": [
        {"id": k, "image_id": image_id, "category_id": category, "bbox": box}
        for k, (image_id, category, box) in enumerate(entries, 1)]})
    dets = [{"image_id": image_id, "category_id": category, "bbox": box, "score": -0.0 if image_id == 1 else 0.5}
            for image_id, category, box in entries]
    args = ["calibrate", "--gt", gt, "--persons", write_json(tmp_path / "persons.json", dets[::2]),
            "--parts", write_json(tmp_path / "parts.json", dets[1::2]), "--min-area", "0",
            "--category-map", write_json(tmp_path / "map.json", {"1": "Person", "2": "Torso"})]
    op = tmp_path / "op.json"
    result = runner.invoke(cli, [*args, *(["--strict-conf"] if strict else []), "--out", str(op)])
    assert result.exit_code == 0, result.output
    assert "-0.0" in (tmp_path / "persons.json").read_text() and "-0.0" not in op.read_text()
    conf = json.loads(op.read_text())["conf"]
    assert conf == {"Person": 0.0, "Torso": 0.0}
    assert all(math.copysign(1.0, t) == 1.0 for t in conf.values())


def test_calibrate_deterministic_across_threads(tmp_path, corpus_dir):
    outs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"op_t{threads}.json"
        result = runner.invoke(
            cli, ["calibrate", *corpus_args(corpus_dir), "--threads", threads, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_strict_conf_is_recorded_by_calibrate_and_read_by_evaluate_and_monitor(tmp_path, corpus_dir):
    op = tmp_path / "op.json"
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir), "--strict-conf", "--out", str(op)])
    assert result.exit_code == 0, result.output
    assert json.loads(op.read_text())["strict_conf"] is True
    cfg = write_json(tmp_path / "cfg.json", {"strict_conf": True})
    for command, args in (("evaluate", corpus_args(corpus_dir)), ("monitor", corpus_args(corpus_dir)[2:])):
        assert "--strict-conf" not in runner.invoke(cli, [command, "--help"]).output
        out = tmp_path / f"{command}.out"
        base = [command, *args, "--operating-point", str(op), "--out", str(out)]
        result = runner.invoke(cli, [*base, "--strict-conf"])
        assert result.exit_code == 2 and "No such option" in result.output, result.output  # wording varies by click version
        assert_input_error(runner.invoke(cli, [*base, "--config", cfg]), "unknown option 'strict_conf'")
        assert not out.exists()
        result = runner.invoke(cli, base)
        assert result.exit_code == 0, result.output


def test_evaluate_reports_are_byte_identical_across_runs(tmp_path, corpus_dir):
    op = tmp_path / "op.json"
    assert runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir), "--out", str(op)]).exit_code == 0
    blobs = []
    for run_dir in ("run1", "run2"):
        out = tmp_path / run_dir / "report.json"
        out.parent.mkdir()
        result = runner.invoke(
            cli,
            ["evaluate", *corpus_args(corpus_dir), "--operating-point", str(op),
             "--protocol", "per-object", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_evaluate_per_image_csv_contract(tmp_path, corpus_dir):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    out = tmp_path / "report.csv"
    result = runner.invoke(
        cli,
        ["evaluate", *corpus_args(corpus_dir), "--operating-point", op,
         "--protocol", "per-image", "--format", "csv", "--system", "synth",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "system,alert,tp,fp,fn,tn,precision,recall,mcc"
    assert lines[1].startswith("synth,fp,") and lines[2].startswith("synth,fn,")
    assert (tmp_path / "report.csv.manifest.json").exists()


@pytest.fixture(scope="module")
def interior_corpus(tmp_path_factory):
    """Synth seed 6, 300 scenes with half the persons and parts dropped, and its operating point at tau 0.9.
    Its alphas differ (0.95 / 0.25), and its persons span 12,800-51,200 px^2."""
    corpus = tmp_path_factory.mktemp("interior") / "corpus"
    result = runner.invoke(cli, ["synth", "--seed", "6", "--n-scenes", "300", "--jitter", "6",
                                 "--drop-person-prob", "0.5", "--drop-part-prob", "0.5", "--out", str(corpus)])
    assert result.exit_code == 0, result.output
    op = corpus.parent / "op.json"
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus), "--tau", "0.9", "--out", str(op)])
    assert result.exit_code == 0, result.output
    return corpus, op


INPUT_NAMES = ("gt", "persons", "parts", "category_map")


def rewritten_corpus(corpus, out, rewrite):
    """The corpus's four input files, decoded, changed in place by ``rewrite(gt, persons, parts, category_map)``
    and written to ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    files = {name: json.loads((corpus / f"{name}.json").read_text()) for name in INPUT_NAMES}
    rewrite(**files)
    for name, payload in files.items():
        write_json(out / f"{name}.json", payload)
    return out


@pytest.fixture(scope="module")
def table_inputs(tmp_path_factory, interior_corpus):
    """The corpora (directories) and operating points (files) of ``TABLE``, by name."""
    root = tmp_path_factory.mktemp("table")
    for name, flags in {"seed4": "--seed 4 --persons-per-scene 0:2", "seed5": "--seed 5",
                        "seed6": "--seed 6 --jitter 6",
                        "duplicated": "--seed 8 --n-scenes 24 --persons-per-scene 3:3 --jitter 2"}.items():
        result = runner.invoke(cli, ["synth", "--n-scenes", "10", *flags.split(), "--out", str(root / name)])
        assert result.exit_code == 0, result.output

    def duplicate(gt, persons, parts, category_map):
        # A second detection of every third person: greedy matching validates one of the two, existential both.
        # At 0.9 times the score the duplicates survive the greedy thresholds and move alpha_fp; at half, not.
        persons += [dict(d, score=d["score"] * 0.9) for d in persons[::3]]

    def stray(gt, persons, parts, category_map):
        # Entries on an image that the ground truth does not list, and a part far from every person on a listed
        # image, which a Torso annotation anchors but no person one.
        image_id = gt["images"][0]["id"]
        gt["annotations"] += [dict(gt["annotations"][0], id=999, image_id=999_999),
                              {"id": 998, "image_id": image_id, "category_id": 2, "bbox": [5000, 5000, 30, 30]}]
        persons.append(dict(persons[0], image_id=999_999))
        parts.append({"image_id": image_id, "category_id": 2, "bbox": [5005, 5005, 30, 30], "score": 0.9})

    def split(gt, persons, parts, category_map):  # the person stream calls its persons 42, and --category-map Torso
        for d in persons:
            d["category_id"] = 42
        category_map["42"] = "Torso"

    rewritten_corpus(root / "duplicated", root / "duplicated", duplicate)
    rewritten_corpus(root / "seed5", root / "seed5", stray)
    write_json(rewritten_corpus(root / "seed5", root / "split", split) / "persons_category_map.json", {"42": "Person"})
    corpus, op = interior_corpus
    calibrated = json.loads(op.read_text())  # its alphas differ and its thresholds are scores of its detections
    return {**{path.name: path for path in root.iterdir()}, "interior": corpus, "interior-op": op,
            "zero-op": write_json(root / "zero.json", ZERO_OP),
            "strict-op": write_json(root / "strict.json", {**calibrated, "strict_conf": True}),
            "tau-0.5-op": write_json(root / "tau.json", {**calibrated, "tau": 0.5}),
            "swapped-op": write_json(root / "swapped.json", {**calibrated, "alpha_fp": calibrated["alpha_fn"],
                                                                "alpha_fn": calibrated["alpha_fp"]})}


ZERO = {"operating_point": "zero-op"}
INTERIOR = {"operating_point": "interior-op"}

# Each row runs one command on a corpus, with the input files and operating point named as in ``table_inputs``. Its
# output must equal ``oracle.pipeline``'s, and the reference must answer differently under the row's alternative.
TABLE = {
    "calibrate-greedy": ("calibrate", "duplicated", {"matching": "greedy", "min_area": 0},
                         {"matching": "existential"}),
    "calibrate-tau": ("calibrate", "seed6", {"tau": 0.9}, {"tau": 0.5}),
    "calibrate-min-area": ("calibrate", "seed6", {"min_area": 30000}, {"min_area": 0}),
    "calibrate-strict": ("calibrate", "seed6", {"strict_conf": True}, {"strict_conf": False}),
    **{f"evaluate-{protocol}-{name}": ("evaluate", corpus, {"protocol": protocol, **options}, alternative)
       for protocol in ("per-image", "per-object") for name, corpus, options, alternative in (
           ("unfiltered", "seed5", {**ZERO, "min_area": 0}, {"min_area": 30000}),
           ("greedy", "duplicated", {**ZERO, "matching": "greedy", "min_area": 0}, {"matching": "existential"}),
           ("tau", "interior", {**INTERIOR, "min_area": 0}, {"operating_point": "tau-0.5-op"}),
           ("min-area", "interior", {**INTERIOR, "min_area": 40000}, {"min_area": 0}),
           ("strict", "interior", {"operating_point": "strict-op"}, INTERIOR),
           ("persons-map", "split", {**ZERO, "persons_category_map": True}, {"persons_category_map": False}))},
    "evaluate-per-object-ghost-all-classes": ("evaluate", "seed5", {**ZERO, "protocol": "per-object",
                                                                    "ghost_all_classes": True},
                                              {"ghost_all_classes": False}),
    "evaluate-per-image-filter-mode": ("evaluate", "seed4", {**ZERO, "filter_mode": "require_all_above"},
                                       {"filter_mode": "drop_if_any_below"}),
    "monitor-image-unknown-image": ("monitor", "seed5", ZERO, {"gt": False}),
    **{f"monitor-{mode}-{name}": ("monitor", "interior", {"mode": mode, **options}, alternative)
       for mode in ("image", "object") for name, options, alternative in (
           ("alphas", INTERIOR, {"operating_point": "swapped-op"}),
           ("strict", {"operating_point": "strict-op"}, INTERIOR),
           ("without-gt", {**INTERIOR, "gt": False}, {"gt": True}))},
}


def table_case(inputs, command, corpus, options):
    """(the command line, the decoded input files, the resolved options) of ``command`` on the named corpus with
    ``options``: a corpus file is given unless its name is False (``persons_category_map`` only if True), the
    operating point is given by name, and the other options are flags."""
    options = dict(options)
    paths = {name: inputs[corpus] / f"{name}.json" for name in (*INPUT_NAMES, "persons_category_map")
             if options.pop(name, name in INPUT_NAMES)}
    paths |= {"operating_point": inputs[options.pop("operating_point")]} if "operating_point" in options else {}
    args = [command, *[arg for name, value in (*paths.items(), *options.items()) if value is not False
                       for arg in (f"--{name.replace('_', '-')}", *([] if value is True else [str(value)]))]]
    files = {name: json.loads(Path(path).read_text()) for name, path in paths.items()}
    return args, files, {param.name: param.default for param in cli.commands[command].params} | options


@pytest.mark.parametrize("row", TABLE)
def test_command_output_equals_the_reference_pipeline(tmp_path, table_inputs, row):
    command, corpus, options, alternative = TABLE[row]
    args, files, resolved = table_case(table_inputs, command, corpus, options)
    result = runner.invoke(cli, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    text = (tmp_path / "out").read_text()
    got = [json.loads(line) for line in text.splitlines()] if command == "monitor" else json.loads(text)
    if command == "evaluate":  # the report without its manifest and ratios
        got = {key: {k: v for k, v in value.items() if k not in ("precision", "recall", "mcc")}
               if key.endswith("_alert") else value for key, value in got.items() if key != "manifest"}
    want = pipeline(command, files, resolved)
    assert got == want
    assert pipeline(command, *table_case(table_inputs, command, corpus, options | alternative)[1:]) != want


def doubled_corpus(corpus, out):
    """The corpus appended to itself: the copy's image and annotation ids are shifted past the originals'."""
    def rewrite(gt, persons, parts, category_map):
        image_shift = max(img["id"] for img in gt["images"])
        ann_shift = max(a["id"] for a in gt["annotations"])
        gt["images"] += [dict(img, id=img["id"] + image_shift) for img in gt["images"]]
        gt["annotations"] += [dict(a, id=a["id"] + ann_shift, image_id=a["image_id"] + image_shift)
                              for a in gt["annotations"]]
        for dets in (persons, parts):
            dets += [dict(d, image_id=d["image_id"] + image_shift) for d in dets]
    return rewritten_corpus(corpus, out, rewrite)


def assert_counts_doubled(report, doubled):
    """Every count of ``doubled`` is twice the one of ``report``, and every ratio is the same."""
    assert report.keys() == doubled.keys()
    for key, value in report.items():
        if isinstance(value, dict):
            assert_counts_doubled(value, doubled[key])
        else:
            want = 2 * value if isinstance(value, int) else value
            assert (doubled[key].__class__, doubled[key]) == (value.__class__, want)


def test_doubling_the_corpus_keeps_the_operating_point_and_doubles_every_count(tmp_path, interior_corpus):
    # A metamorphic relation: F1 and MCC are the same at twice the counts, so calibrate chooses the same point.
    corpus = interior_corpus[0]
    twice = doubled_corpus(corpus, tmp_path / "twice")
    alphas = []
    for matching in ("existential", "greedy"):
        for tau in ("0.5", "0.9"):
            ops = []
            for source in (corpus, twice):
                ops.append(tmp_path / f"op_{source.name}_{matching}_{tau}.json")
                result = runner.invoke(cli, ["calibrate", *corpus_args(source), "--matching", matching, "--tau", tau,
                                             "--out", str(ops[-1])])
                assert result.exit_code == 0, result.output
            assert ops[0].read_bytes() == ops[1].read_bytes()
            op = json.loads(ops[0].read_text())
            alphas.append((op["alpha_fp"], op["alpha_fn"]))
            for protocol in ("per-image", "per-object"):
                reports = []
                for source in (corpus, twice):
                    out = tmp_path / f"{source.name}-{protocol}.json"
                    result = runner.invoke(cli, ["evaluate", *corpus_args(source), "--operating-point", str(ops[0]),
                                                 "--matching", matching, "--protocol", protocol, "--out", str(out)])
                    assert result.exit_code == 0, result.output
                    reports.append({k: v for k, v in json.loads(out.read_text()).items() if k != "manifest"})
                assert_counts_doubled(*reports)
    assert any(alpha_fp != alpha_fn for alpha_fp, alpha_fn in alphas)


def outputs_at_one_path(corpus, work, *flags):
    """{name: bytes} of every output and stdout of the commands run on ``corpus`` with ``flags`` for the filter.

    The corpus is copied to ``work/in`` and the outputs go to ``work/out``, so two corpora run under the same
    paths. Under both matchings at tau 0.5 and 0.9: calibrate, then at its operating point evaluate in both
    protocols and monitor in both modes, with --gt and without it (``live-<mode>.jsonl``).
    """
    inputs, out = work / "in", work / "out"
    inputs.mkdir(parents=True, exist_ok=True), out.mkdir(exist_ok=True)
    for name in INPUT_NAMES:
        (inputs / f"{name}.json").write_bytes((corpus / f"{name}.json").read_bytes())
    op, outputs = out / "op.json", {}
    for matching in ("existential", "greedy"):
        for tau in ("0.5", "0.9"):
            runs = [("calibrate", ["calibrate", *corpus_args(inputs), *flags, "--matching", matching, "--tau", tau,
                                   "--out", str(op)])]
            runs += [(f"evaluate-{protocol}", ["evaluate", *corpus_args(inputs), *flags, "--matching", matching,
                                               "--operating-point", str(op), "--protocol", protocol,
                                               "--out", str(out / f"{protocol}.json")])
                     for protocol in ("per-image", "per-object")]
            runs += [(f"monitor-{live}{mode}", ["monitor", *corpus_args(inputs)[2 if live else 0:],
                                                "--operating-point", str(op), "--mode", mode,
                                                "--out", str(out / f"{live}{mode}.jsonl")])
                     for mode in ("image", "object") for live in ("", "live-")]
            for name, args in runs:
                result = runner.invoke(cli, args)
                assert result.exit_code == 0, result.output
                outputs[f"{matching}-{tau}/{name}.stdout"] = result.stdout.encode()
            outputs |= {f"{matching}-{tau}/{path.name}": path.read_bytes() for path in out.iterdir()}
    return outputs


def without_hashes(data):
    return re.sub(rb'"sha256": "[0-9a-f]{64}"', b'"sha256": ""', data)


@pytest.fixture(scope="module")
def interior_outputs(tmp_path_factory, interior_corpus):
    """The work directory and ``outputs_at_one_path`` of the interior corpus with the default filter: a rewritten
    corpus run in the same directory names the same paths."""
    work = tmp_path_factory.mktemp("run")
    return work, outputs_at_one_path(interior_corpus[0], work)


def test_scaling_every_box_and_the_min_area_keeps_every_output(tmp_path, interior_corpus):
    # A metamorphic relation: x2 on every box value scales every area and intersection by exactly 4, and
    # leaves every overlap ratio and IoU as it was.
    def rewrite(gt, persons, parts, category_map):
        for entry in (*gt["annotations"], *persons, *parts):
            entry["bbox"] = [2 * value for value in entry["bbox"]]

    corpus = interior_corpus[0]
    scaled = rewritten_corpus(corpus, tmp_path / "scaled", rewrite)
    want = outputs_at_one_path(corpus, tmp_path / "run", "--min-area", "40000")
    got = outputs_at_one_path(scaled, tmp_path / "run", "--min-area", "160000")
    assert got.keys() == want.keys()
    for name, data in want.items():
        if name.endswith("object.jsonl"):  # its detection records carry their boxes
            lines = [json.loads(line) for line in data.decode().splitlines()]
            for record in (d for line in lines for key in ("tp_mon", "fp_mon", "fn_mon") for d in line[key]):
                record["bbox"] = [2 * value for value in record["bbox"]]
            data = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines).encode()
        assert without_hashes(got[name]) == without_hashes(data), name
    assert got["existential-0.5/object.jsonl"] != want["existential-0.5/object.jsonl"]
    assert json.loads(want["existential-0.9/per-image.json"])["total_images"] < 300  # the filter drops images


def test_relabelling_the_source_categories_keeps_every_output(tmp_path, interior_corpus, interior_outputs):
    # A metamorphic relation: a source id matters only through the category map.
    new_ids = list(range(1, 10))
    random.Random(3).shuffle(new_ids)
    relabel = dict(zip(range(1, 10), new_ids))
    assert relabel != {i: i for i in range(1, 10)}

    def rewrite(gt, persons, parts, category_map):
        for entry in (*gt["annotations"], *persons, *parts):
            entry["category_id"] = relabel[entry["category_id"]]
        for category in gt["categories"]:
            category["id"] = relabel[category["id"]]
        names = dict(category_map)
        category_map.clear()
        category_map.update({str(relabel[int(key)]): name for key, name in names.items()})

    relabelled = rewritten_corpus(interior_corpus[0], tmp_path / "relabelled", rewrite)
    work, want = interior_outputs
    got = outputs_at_one_path(relabelled, work)
    assert got.keys() == want.keys()
    for name, data in want.items():
        assert without_hashes(got[name]) == without_hashes(data), name
    assert got["existential-0.5/op.json.manifest.json"] != want["existential-0.5/op.json.manifest.json"]


def greedy_order_dependences(scenes):
    """Where greedy matching can follow file order: two equal-score detections of one class in one scene that both
    overlap one ground-truth box of that class, or a detection with equal IoU against two such boxes."""
    found = []
    for s in scenes:
        dets = (*s.persons, *s.parts)
        found += [(a, b) for a, b in itertools.combinations(dets, 2) if a.category is b.category
                  and a.score == b.score and any(g.category is a.category and intersection_area(a.box, g.box) > 0
                                                 < intersection_area(b.box, g.box) for g in s.gt)]
        for d in dets:
            ious = [value for g in s.gt if g.category is d.category and (value := iou(d.box, g.box)) > 0]
            if len(set(ious)) < len(ious):
                found.append(d)
    return found


def monitor_records(data, original_id=lambda record: record["det_id"]):
    """The lines of a ``monitor --mode object`` output, with each record's det_id replaced by
    ``original_id(record)`` and each line's records sorted."""
    lines = [json.loads(line) for line in data.decode().splitlines()]
    for line, key in itertools.product(lines, ("tp_mon", "fp_mon", "fn_mon")):
        line[key] = sorted((dict(d, det_id=original_id(d)) for d in line[key]),
                           key=lambda d: (d["category"], d["det_id"]))
    return lines


def test_shuffling_the_entries_of_every_file_keeps_every_output(tmp_path, interior_corpus, interior_outputs):
    # A metamorphic relation: an output depends on the entries of each file, not on their order.
    corpus = interior_corpus[0]
    scenes = pipeline_scenes("calibrate", *table_case({"interior": corpus}, "calibrate", "interior", {})[1:])
    assert not greedy_order_dependences(scenes)  # the premise under greedy matching
    rng, orders = random.Random(11), {}

    def rewrite(gt, persons, parts, category_map):
        for name, entries in (("persons", persons), ("parts", parts), ("annotations", gt["annotations"]),
                              ("images", gt["images"])):
            orders[name] = rng.sample(range(len(entries)), len(entries))
            entries[:] = [entries[i] for i in orders[name]]

    def original_id(record):  # a det_id is the entry's index in its file
        return orders["persons" if record["category"] == "Person" else "parts"][record["det_id"]]

    shuffled = rewritten_corpus(corpus, tmp_path / "shuffled", rewrite)
    work, want = interior_outputs
    got = outputs_at_one_path(shuffled, work)
    assert got.keys() == want.keys()
    for name, data in want.items():
        if name.endswith("object.jsonl"):
            assert monitor_records(got[name], original_id) == monitor_records(data), name
        else:
            assert without_hashes(got[name]) == without_hashes(data), name
    assert got["existential-0.5/object.jsonl"] != want["existential-0.5/object.jsonl"]  # the det_ids moved


def test_require_all_above_filter_mode_drops_person_free_images(tmp_path):
    corpus = tmp_path / "corpus"
    result = runner.invoke(cli, ["synth", "--seed", "4", "--n-scenes", "12", "--persons-per-scene", "0:2",
                                 "--out", str(corpus)])
    assert result.exit_code == 0, result.output
    gt = json.loads((corpus / "gt.json").read_text())
    with_person = {a["image_id"] for a in gt["annotations"] if a["category_id"] == 1}
    assert 0 < len(with_person) < len(gt["images"])  # synth persons are all above the default --min-area
    op = write_json(tmp_path / "op.json", ZERO_OP)
    totals = {}
    for mode in ("drop_if_any_below", "require_all_above"):
        out = tmp_path / f"{mode}.json"
        result = runner.invoke(cli, ["evaluate", *corpus_args(corpus), "--operating-point", op,
                                     "--filter-mode", mode, "--out", str(out)])
        assert result.exit_code == 0, result.output
        totals[mode] = json.loads(out.read_text())["total_images"]
    assert totals == {"drop_if_any_below": len(gt["images"]), "require_all_above": len(with_person)}


def test_split_persons_category_map_gives_the_unsplit_outputs(tmp_path, corpus_dir):
    # The person stream calls the person class 42, and its own category map says so.
    persons = json.loads((corpus_dir / "persons.json").read_text())
    assert persons and all(d["category_id"] == 1 for d in persons)
    split = ["--persons", write_json(tmp_path / "persons42.json", [dict(d, category_id=42) for d in persons]),
             "--persons-category-map", write_json(tmp_path / "persons_map.json", {"42": "Person"})]
    outputs = {}
    for wiring, extra in (("unsplit", []), ("split", split)):
        args = [*corpus_args(corpus_dir), *extra]  # a repeated --persons takes the last value
        op = str(tmp_path / f"op_{wiring}.json")
        runs = [["calibrate", *args, "--out", op]]
        runs += [["evaluate", *args, "--operating-point", op, "--protocol", protocol,
                  "--out", str(tmp_path / f"{wiring}_{protocol}.json")] for protocol in ("per-image", "per-object")]
        runs += [["monitor", *args[2:], "--operating-point", op, "--mode", mode,
                  "--out", str(tmp_path / f"{wiring}_{mode}.jsonl")] for mode in ("image", "object")]
        for run in runs:
            result = runner.invoke(cli, run)
            assert result.exit_code == 0, result.output
        reports = [json.loads((tmp_path / f"{wiring}_{protocol}.json").read_text())
                   for protocol in ("per-image", "per-object")]
        for report in reports:
            del report["manifest"]  # names the input files, which differ
        outputs[wiring] = (Path(op).read_bytes(), reports,
                           [(tmp_path / f"{wiring}_{mode}.jsonl").read_bytes() for mode in ("image", "object")])
    assert outputs["split"] == outputs["unsplit"]


def test_monitor_image_mode_on_derived_scene(tmp_path):
    # One person covering part A; part B stranded far away.
    persons = write_json(tmp_path / "p.json", [
        {"image_id": 1, "category_id": 1, "bbox": [0, 0, 100, 200], "score": 0.9},
    ])
    parts = write_json(tmp_path / "q.json", [
        {"image_id": 1, "category_id": 2, "bbox": [10, 10, 30, 30], "score": 0.9},
        {"image_id": 1, "category_id": 2, "bbox": [300, 300, 30, 30], "score": 0.9},
    ])
    cat_map = write_json(tmp_path / "m.json", {"1": "Person", "2": "Torso"})
    op = write_json(tmp_path / "op.json", ZERO_OP)
    out = tmp_path / "alerts.jsonl"
    result = runner.invoke(
        cli,
        ["monitor", "--persons", persons, "--parts", parts, "--category-map", cat_map,
         "--operating-point", op, "--mode", "image", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    record = json.loads(out.read_text().strip())
    assert record == {"alert_fn": True, "alert_fp": False, "image_id": 1}


def test_monitor_object_mode_empty_detections(tmp_path, corpus_dir):
    persons = write_json(tmp_path / "none.json", [])
    op = write_json(tmp_path / "op.json", ZERO_OP)
    out = tmp_path / "v.jsonl"
    result = runner.invoke(
        cli,
        ["monitor", "--gt", str(corpus_dir / "gt.json"), "--persons", persons, "--parts", persons,
         "--category-map", str(corpus_dir / "category_map.json"),
         "--operating-point", op, "--mode", "object", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in out.read_text().strip().split("\n")]
    assert len(lines) == 10  # one line per ground-truth image
    assert all(rec["tp_mon"] == [] and rec["fp_mon"] == [] and rec["fn_mon"] == [] for rec in lines)
    assert [rec["image_id"] for rec in lines] == sorted(rec["image_id"] for rec in lines)


def test_monitor_rejects_invalid_mode(tmp_path, corpus_dir):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    result = runner.invoke(
        cli,
        ["monitor", "--persons", str(corpus_dir / "persons.json"),
         "--parts", str(corpus_dir / "parts.json"),
         "--category-map", str(corpus_dir / "category_map.json"),
         "--operating-point", op, "--mode", "bogus", "--out", str(tmp_path / "x.jsonl")],
    )
    assert result.exit_code == 2


def test_detection_on_an_unknown_image_is_a_warning(tmp_path, corpus_dir):
    persons = json.loads((corpus_dir / "persons.json").read_text())
    write_json(corpus_dir / "persons.json", [*persons, dict(persons[0], image_id=999_999)])
    op = write_json(tmp_path / "op.json", ZERO_OP)
    result = runner.invoke(cli, ["evaluate", *corpus_args(corpus_dir), "--operating-point", op,
                                 "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert result.stderr.splitlines() == [
        f"warning: person detection det_id={len(persons)} references unknown image id 999999"]


# evaluate under each protocol, and monitor with --gt: the commands that read the ground truth with an operating point.
GT_RUNS = {"per-image": ["evaluate", "--protocol", "per-image"], "per-object": ["evaluate", "--protocol", "per-object"],
           "monitor": ["monitor", "--mode", "object"]}


def gt_run_args(run, corpus_dir, tmp_path):
    return [*GT_RUNS[run], *corpus_args(corpus_dir), "--operating-point", write_json(tmp_path / "op.json", ZERO_OP)]


def annotation_of(gt: dict, category: str) -> dict:
    """The first annotation of ``category`` in a synth ground truth."""
    cat_id = partmon.synth.CATEGORY_IDS[DetectionClass(category)]
    return next(a for a in gt["annotations"] if a["category_id"] == cat_id)


@pytest.mark.parametrize("category", ["Person", "Torso"])
@pytest.mark.parametrize("run", GT_RUNS)
def test_annotation_on_an_unknown_image_is_a_warning(tmp_path, corpus_dir, run, category):
    # Whatever classes a command scores, an annotation on an unlisted image is read and named.
    args = gt_run_args(run, corpus_dir, tmp_path)
    clean = runner.invoke(cli, [*args, "--out", str(tmp_path / "clean.json")])
    gt = json.loads((corpus_dir / "gt.json").read_text())
    stray = dict(annotation_of(gt, category), id=999, image_id=999_999)
    write_json(corpus_dir / "gt.json", dict(gt, annotations=[*gt["annotations"], stray]))
    result = runner.invoke(cli, [*args, "--out", str(tmp_path / "report.json")])
    assert clean.exit_code == result.exit_code == 0, result.output
    assert result.stderr.splitlines() == ["warning: annotation id=999 references unknown image id 999999"]
    # The output still names its inputs by digest; every count and verdict is the clean corpus's.
    outputs = [tmp_path / "report.json", tmp_path / "clean.json"]
    if run == "monitor":
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        manifests = [json.loads(Path(f"{path}.manifest.json").read_text()) for path in outputs]
    else:
        report, clean_report = (json.loads(path.read_text()) for path in outputs)
        manifests = [report.pop("manifest"), clean_report.pop("manifest")]
        assert report == clean_report
    assert manifests[0]["inputs"]["gt"] != manifests[1]["inputs"]["gt"]


@pytest.mark.parametrize("bad, message", [
    ({"bbox": [3, 4, 0, 10]}, "annotation id 999: bbox width and height must be positive, got [3, 4, 0, 10]"),
    ({"image_id": 1.5}, "annotation id 999: image_id must be an integer, got 1.5"),
], ids=["zero-width", "fractional-image-id"])
@pytest.mark.parametrize("run", GT_RUNS)
def test_an_annotation_of_a_class_that_is_not_scored_is_still_checked(tmp_path, corpus_dir, run, bad, message):
    # A Torso annotation on a listed image: no command here keeps its record, and each refuses it as validate does.
    gt = json.loads((corpus_dir / "gt.json").read_text())
    torso = annotation_of(gt, "Torso")
    write_json(corpus_dir / "gt.json", dict(gt, annotations=[*gt["annotations"], dict(torso, id=999, **bad)]))
    checked = runner.invoke(cli, ["validate", *corpus_args(corpus_dir)])
    result = runner.invoke(cli, [*gt_run_args(run, corpus_dir, tmp_path), "--out", str(tmp_path / "out.json")])
    assert checked.exit_code == result.exit_code == 2
    assert result.output.splitlines() == checked.output.splitlines() == ["Error: " + message]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_a_warning_quoting_an_id_stays_one_line(tmp_path, corpus_dir, command):
    # An annotation id is any JSON value; the characters at which str.splitlines() breaks a line show escaped.
    gt = json.loads((corpus_dir / "gt.json").read_text())
    stray = dict(gt["annotations"][0], id="a\nb\x1e\u2028", image_id=999_999)
    write_json(corpus_dir / "gt.json", dict(gt, annotations=[*gt["annotations"], stray]))
    op = ["--operating-point", write_json(tmp_path / "op.json", ZERO_OP), "--out", str(tmp_path / "report.json")]
    result = runner.invoke(cli, [command, *corpus_args(corpus_dir), *(op if command == "evaluate" else [])])
    assert result.exit_code == 0, result.output
    assert result.stderr.splitlines() == ["warning: annotation id=a\\nb\\x1e\\u2028 references unknown image id 999999"]


def test_missing_input_file_exits_2(tmp_path):
    result = runner.invoke(
        cli,
        ["calibrate", "--gt", str(tmp_path / "nope.json"), "--persons", "x", "--parts", "y",
         "--category-map", "z", "--out", str(tmp_path / "op.json")],
    )
    assert result.exit_code == 2
    assert "nope.json" in result.output


def test_malformed_json_exits_2(tmp_path, corpus_dir):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    result = runner.invoke(
        cli,
        ["calibrate", "--gt", str(bad), "--persons", str(corpus_dir / "persons.json"),
         "--parts", str(corpus_dir / "parts.json"),
         "--category-map", str(corpus_dir / "category_map.json"),
         "--out", str(tmp_path / "op.json")],
    )
    assert result.exit_code == 2
    assert "malformed JSON" in result.output


def test_out_of_range_score_exits_2(tmp_path, corpus_dir):
    bad = write_json(tmp_path / "bad.json",
                     [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 1.5}])
    result = runner.invoke(
        cli,
        ["calibrate", "--gt", str(corpus_dir / "gt.json"), "--persons", bad,
         "--parts", str(corpus_dir / "parts.json"),
         "--category-map", str(corpus_dir / "category_map.json"),
         "--out", str(tmp_path / "op.json")],
    )
    assert result.exit_code == 2
    assert "score" in result.output


def test_internal_error_exits_1(tmp_path, corpus_dir, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(partmon.calibration, "build_operating_point", boom)  # calibrate imports it when it runs
    result = runner.invoke(
        cli, ["calibrate", *corpus_args(corpus_dir), "--out", str(tmp_path / "op.json")]
    )
    assert result.exit_code == 1


def test_validate_command(tmp_path, corpus_dir):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    result = runner.invoke(
        cli,
        ["validate", "--gt", str(corpus_dir / "gt.json"),
         "--persons", str(corpus_dir / "persons.json"),
         "--category-map", str(corpus_dir / "category_map.json"),
         "--operating-point", op],
    )
    assert result.exit_code == 0, result.output
    assert "ok" in result.output

    missing_map = runner.invoke(cli, ["validate", "--gt", str(corpus_dir / "gt.json")])
    assert missing_map.exit_code == 2


def test_validate_warns_about_entries_on_unknown_images(tmp_path, corpus_dir):
    # The entries that evaluate drops with a warning: validate names them the same way, and still passes.
    args = ["validate", *corpus_args(corpus_dir)]
    clean = runner.invoke(cli, args)
    assert (clean.exit_code, clean.stderr) == (0, "")
    gt = json.loads((corpus_dir / "gt.json").read_text())
    stray = dict(gt["annotations"][0], id=999, image_id=1_000_000)
    write_json(corpus_dir / "gt.json", dict(gt, annotations=[*gt["annotations"], stray]))
    persons = json.loads((corpus_dir / "persons.json").read_text())
    write_json(corpus_dir / "persons.json", [*persons, dict(persons[0], image_id=777_777)])
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[-1] == "ok"
    assert result.stderr.splitlines() == [
        f"warning: person detection det_id={len(persons)} references unknown image id 777777",
        "warning: annotation id=999 references unknown image id 1000000"]
    # Without --gt every image id is known.
    alone = runner.invoke(cli, ["validate", *corpus_args(corpus_dir)[2:]])
    assert (alone.exit_code, alone.stderr) == (0, "")


def test_validate_prints_the_recorded_confidence_rule(tmp_path):
    lines = []
    for strict in (False, True):
        op = write_json(tmp_path / f"op_{strict}.json", {**ZERO_OP, "strict_conf": strict})
        result = runner.invoke(cli, ["validate", "--operating-point", op])
        assert result.exit_code == 0, result.output
        lines.append(result.output.splitlines()[0])
    assert lines[0].endswith(", keeps score >= t") and lines[1].endswith(", keeps score > t"), lines


def test_baseline_wiring_person_stream_as_parts(tmp_path, corpus_dir):
    # The second person detector's output doubles as the "part" stream by
    # mapping its person category onto a part class.
    second = write_json(tmp_path / "second.json", [
        {"image_id": 1, "category_id": 1, "bbox": [0, 0, 100, 200], "score": 0.8},
    ])
    person_as_part = write_json(tmp_path / "pp_map.json", {"1": "Torso"})
    op = write_json(tmp_path / "op.json", ZERO_OP)
    out = tmp_path / "report.json"
    result = runner.invoke(
        cli,
        ["evaluate", "--gt", str(corpus_dir / "gt.json"),
         "--persons", str(corpus_dir / "persons.json"),
         "--parts", second,
         "--category-map", str(corpus_dir / "category_map.json"),
         "--parts-category-map", person_as_part,
         "--operating-point", op, "--protocol", "per-object", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    total_persons = sum(
        1 for entry in json.loads((corpus_dir / "persons.json").read_text())
    )
    cells = report["confusion"]
    assert cells["tp_gt_tp_mon"] + cells["tp_gt_fp_mon"] + cells["fp_gt_tp_mon"] + cells["fp_gt_fp_mon"] == total_persons


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = write_json(tmp_path / "cfg.json", {"seed": 42, "n_scenes": 3})
    out_a = tmp_path / "a"
    result = runner.invoke(cli, ["synth", "--config", config, "--out", str(out_a)])
    assert result.exit_code == 0, result.output
    assert "3 scenes" in result.output

    out_b = tmp_path / "b"
    result = runner.invoke(
        cli, ["synth", "--config", config, "--n-scenes", "5", "--out", str(out_b)]
    )
    assert result.exit_code == 0, result.output
    assert "5 scenes" in result.output

    unknown = write_json(tmp_path / "bad_cfg.json", {"not_a_flag": 1})
    result = runner.invoke(cli, ["synth", "--config", unknown, "--out", str(tmp_path / "c")])
    assert result.exit_code == 2


def test_required_options_must_be_flags(tmp_path, corpus_dir):
    # Click checks required options before the config is read, so a config cannot supply them.
    cfg = write_json(tmp_path / "cfg.json", {"gt": str(corpus_dir / "gt.json"), "out": str(tmp_path / "op.json")})
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir)[2:], "--config", cfg])
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines()[-1] == "Error: Missing option '--gt'."
    assert not (tmp_path / "op.json").exists()


def assert_input_error(result, fragment):
    """Exit 2 with a one-line message naming the problem, never a traceback."""
    assert result.exit_code == 2, result.output
    assert fragment in result.output
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1, result.output


@pytest.mark.parametrize("config, option", [
    ({"matching": "foo"}, "--matching"),
    ({"threads": 0}, "--threads"),
    ({"threads": float("inf")}, "invalid value for 'threads'"),
    ({"threads": [1]}, "invalid value for 'threads'"),
    ({"tau": [0.5]}, "invalid value for 'tau'"),
    ({"min_area": None}, "invalid value for 'min_area'"),
    ({"filter_mode": {"a": 1}}, "invalid value for 'filter_mode'"),
    ({"strict_conf": 5}, "invalid value for 'strict_conf'"),
    ({"tau": float("nan")}, "--tau"),
    ({"min_area": "inf"}, "--min-area"),
    ({"min_area": False}, "invalid value for 'min_area': expected a number, got false"),
    ({"tau": True}, "invalid value for 'tau': expected a number, got true"),
    ('{"tau": 0.3, "tau": 0.7}', "cfg.json: repeated key 'tau'"),  # as written: a dict cannot repeat a key
])
def test_config_values_get_the_checks_of_flags(tmp_path, corpus_dir, config, option):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    out = tmp_path / "op.json"
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir), "--config", str(cfg), "--out", str(out)])
    assert_input_error(result, option)
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"n_scenes": 2.9}, {"seed": True}, {"n_scenes": False}, {"seed": -1.5}, {"n_scenes": float("inf")},
])
def test_integer_config_values_are_neither_truncated_nor_booleans(tmp_path, config):
    cfg = write_json(tmp_path / "cfg.json", config)
    result = runner.invoke(cli, ["synth", "--config", cfg, "--out", str(tmp_path / "corpus")])
    assert_input_error(result, "expected an integer")
    assert not (tmp_path / "corpus").exists()


def test_integral_config_numbers_are_integers(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"n_scenes": 2.0, "seed": 3.0})
    result = runner.invoke(cli, ["synth", "--config", cfg, "--out", str(tmp_path / "corpus")])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "corpus" / "corpus.manifest.json").read_text(encoding="utf-8"))
    assert (manifest["config"]["n_scenes"], manifest["config"]["seed"]) == (2, 3)


@pytest.mark.parametrize("command, config", [
    ("calibrate", {"strict_conf": 5}),
    ("calibrate", {"strict_conf": 0}),
    ("calibrate", {"strict_conf": "true"}),
    ("evaluate", {"ghost_all_classes": 1.0}),
])
def test_boolean_config_values_must_be_booleans(tmp_path, corpus_dir, command, config):
    cfg = write_json(tmp_path / "cfg.json", config)
    op = write_json(tmp_path / "op.json", ZERO_OP)
    extra = ["--operating-point", op] if command == "evaluate" else []
    out = tmp_path / "out.json"
    result = runner.invoke(cli, [command, *corpus_args(corpus_dir), *extra, "--config", cfg, "--out", str(out)])
    assert_input_error(result, "expected a boolean")
    assert not out.exists()


@pytest.mark.parametrize("jitter", ["1e300", "1e308", "1.7e308"])
def test_synth_refuses_a_jitter_that_makes_boxes_the_loaders_refuse(tmp_path, jitter):
    result = runner.invoke(cli, ["synth", "--n-scenes", "2", "--jitter", jitter, "--out", str(tmp_path / "corpus")])
    assert_input_error(result, "jitter")
    assert "detection #" in result.output
    assert not (tmp_path / "corpus").exists()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(exponent=st.floats(0.0, 308.2))
def test_synth_writes_only_corpora_that_validate(tmp_path, exponent):
    out = tmp_path / f"corpus_{exponent!r}"
    result = runner.invoke(cli, ["synth", "--n-scenes", "2", "--jitter", repr(10.0 ** exponent), "--out", str(out)])
    if result.exit_code == 2:
        assert not out.exists()
        return
    assert result.exit_code == 0, result.output
    check = runner.invoke(cli, ["validate", *corpus_args(out)])
    assert check.exit_code == 0, check.output


DET = '{"image_id": 1, "category_id": 1, "bbox": %s, "score": %s}'


@pytest.mark.parametrize("flag, payload, fragment", [
    ("--persons", "[%s]" % (DET % ("[NaN, 0, 10, 10]", "0.9")), "finite"),
    ("--persons", "[%s]" % (DET % ("[0, 0, Infinity, 10]", "0.9")), "finite"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 1e999, 10]", "0.9")), "finite"),
    ("--persons", "[%s]" % (DET % ('["a", 0, 10, 10]', "0.9")), "numbers"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", '"high"')), "score"),
    ("--persons", "[%s, 5]" % (DET % ("[0, 0, 10, 10]", "0.9")), "detection #1"),
    ("--gt", '{"images": [7], "annotations": []}', "image entry #0"),
    ("--gt", '{"images": [{"id": 1}], "annotations": ["x"]}', "annotation #0"),
    ("--persons", b'[{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10], "score": 0.9, "x": "\xff"}]',
     "not UTF-8"),
    ("--gt", b'{"images": [], "annotations": [], "info": "\xe9"}', "not UTF-8"),
    ("--category-map", b'{"1": "Person", "2": "\xc3"}', "not UTF-8"),
    ("--operating-point", b'{"tau": 0.5, "note": "\xff"}', "not UTF-8"),
    ("--config", b'{"seed": 1, "n_scenes": "\xff"}', "not UTF-8"),
    ("--persons", "[" * 100_000 + "]" * 100_000, "nested too deeply"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"image_id": 1', '"image_id": 1e999'),
     "image_id must be an integer"),
    ("--gt", '{"images": [{"id": 1e999}], "annotations": []}', "image entry #0: id must be an integer"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"category_id": 1', '"category_id": 1e999'),
     "unmapped category id"),
    ("--category-map", '{"1": ["Person"]}', "category map value"),
    # int() reads "01" and "+2" as 1 and 2: a second key for one id would silently replace the first.
    ("--category-map", '{"1": "Person", "01": "Torso", "+2": "Head", "2": "Hand"}',
     "Error: category map key '01' repeats id 1"),
    ("--operating-point", '{"conf": [], "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5}', "'conf' must be an object"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 1e200, 1e200]", "0.9")), "area overflows"),
    ("--persons", "[%s]" % (DET % ("[1e308, 0, 1e308, 10]", "0.9")), "far edges must be finite"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 1%s, 10]" % ("0" * 400), "0.9")), "must be finite"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "1%s" % ("0" * 5000))), "integer string conversion"),
    # A number too large for a float reads as infinite however it is written.
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "1e999")), "Error: detection #0: score inf outside [0, 1]"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "1%s" % ("0" * 400))),
     "Error: detection #0: score inf outside [0, 1]"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "-1%s" % ("0" * 400))),
     "Error: detection #0: score -inf outside [0, 1]"),
    # Area 1e308 is finite, but the union of two such boxes in an IoU would not be.
    ("--persons", "[%s]" % (DET % ("[0, 0, 1e154, 1e154]", "0.9")), "area overflows"),
    # int() would truncate these to a valid id, and float() would read true as 1.0.
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"image_id": 1', '"image_id": 1.9'),
     "image_id must be an integer"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"image_id": 1', '"image_id": true'),
     "image_id must be an integer"),
    ("--gt", '{"images": [{"id": 1.5}], "annotations": []}', "image entry #0: id must be an integer"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"category_id": 1', '"category_id": 1.9'),
     "unmapped category id"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"category_id": 1', '"category_id": true'),
     "unmapped category id"),
    ("--gt", '{"images": [{"id": 1}], "annotations": '
             '[{"id": 1, "image_id": 1, "category_id": true, "bbox": [0, 0, 10, 10]}]}', "unmapped category id"),
    ("--persons", "[%s]" % (DET % ("[true, 0, 10, 10]", "0.9")), "bbox values must be numbers"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "true")), "score must be a number"),
    ("--persons", '[{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]}]', "detection #0: score is missing"),
    # int() and float() read underscores and non-ASCII digits; JSON numbers have neither.
    ("--category-map", '{"1_0": "Person"}', "category map key is not an integer id"),
    ("--category-map", '{"\u0661": "Person"}', "category map key is not an integer id"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"image_id": 1', '"image_id": "0_7"'),
     "image_id must be an integer"),
    ("--gt", '{"images": [{"id": "1\u2003"}], "annotations": []}', "image entry #0: id must be an integer"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"category_id": 1', '"category_id": "\u0661"'),
     "unmapped category id"),
    ("--persons", "[%s]" % (DET % ('[0, 0, "1_0", 10]', "0.9")), "bbox values must be numbers"),
    ("--persons", "[%s]" % (DET % ('[0, 0, 10, "\u0661\u0660"]', "0.9")), "bbox values must be numbers"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", '"\u0660.\u0665"')), "score must be a number"),
    # int() and float() also strip surrounding whitespace.
    ("--category-map", '{" 1": "Person"}', "category map key is not an integer id"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"image_id": 1', '"image_id": " 7\\n"'),
     "image_id must be an integer"),
    ("--gt", '{"images": [{"id": " 3"}], "annotations": []}', "image entry #0: id must be an integer"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", "0.9")).replace('"category_id": 1', '"category_id": "1 "'),
     "unmapped category id"),
    ("--persons", "[%s]" % (DET % ('[" 1", "2\\t", 3, 4]', "0.9")), "bbox values must be numbers"),
    ("--persons", "[%s]" % (DET % ("[0, 0, 10, 10]", '" 0.5"')), "score must be a number"),
    # float() reads a JSON boolean as 0 or 1.
    ("--config", '{"jitter": true}', "invalid value for 'jitter': expected a number, got true"),
    ("--config", "[]", "config must be a JSON object"),
    # Operating-point numbers are read the way the loaders read a score.
    ("--operating-point", '{"conf": {"Person": true}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5}',
     "invalid operating point: conf 'Person' must be a number, got True"),
    ("--operating-point", '{"conf": {}, "alpha_fp": " 0.3", "alpha_fn": 0.5, "tau": 0.5}',
     "invalid operating point: alpha_fp must be a number, got ' 0.3'"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "alpha_fn": "0_0.5", "tau": 0.5}',
     "invalid operating point: alpha_fn must be a number, got '0_0.5'"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5, "strict_conf": 1}',
     "invalid operating point: 'strict_conf' must be a boolean, got 1"),
    # A misspelt key would load as its default: here a strict operating point as a non-strict one.
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5, "strict_cof": true}',
     "invalid operating point: unknown key 'strict_cof'"),
    # Every refusal of an operating-point file says so, the constructor's range checks included.
    ("--operating-point", '[]', "Error: invalid operating point: expected a JSON object, got list"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 1e999, "alpha_fn": 0.5, "tau": 0.5}',
     "Error: invalid operating point: alpha_fp must lie in (0, 1), got inf"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 1%s, "alpha_fn": 0.5, "tau": 0.5}' % ("0" * 400),
     "Error: invalid operating point: alpha_fp must lie in (0, 1), got inf"),
    ("--operating-point", '{"conf": {}, "alpha_fp": -1%s, "alpha_fn": 0.5, "tau": 0.5}' % ("0" * 400),
     "Error: invalid operating point: alpha_fp must lie in (0, 1), got -inf"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 1.5, "alpha_fn": 0.5, "tau": 0.5}',
     "Error: invalid operating point: alpha_fp must lie in (0, 1), got 1.5"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 1.5}',
     "Error: invalid operating point: tau must lie in (0, 1), got 1.5"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0}',
     "Error: invalid operating point: tau must lie in (0, 1), got 0.0"),
    ("--operating-point", '{"conf": {"Person": 2.0}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5}',
     "Error: invalid operating point: confidence threshold for Person outside [0, 1]: 2.0"),
    ("--gt", '{"images": [{}], "annotations": []}', "image entry #0: id must be an integer, got None"),
    # Every command reads one scene per image id: a second entry would be counted twice.
    ("--gt", '{"images": [{"id": 3}, {"id": 4}, {"id": 3}], "annotations": []}', "image entry #2: duplicate id 3"),
    ("--gt", '{"images": [{"id": 1}], "annotations": [{"id": 5, "image_id": 1, "category_id": 1, '
             '"bbox": [3, 4, 10, -2]}]}',
     "annotation id 5: bbox width and height must be positive, got [3, 4, 10, -2]"),
    ("--persons", "[%s]" % (DET % ("[3, 4, 10, -2]", "0.9")),
     "detection #0: bbox width and height must be positive, got [3, 4, 10, -2]"),
    # json keeps the last of two equal keys; the three small files refuse the repeat, naming the file and the key.
    ("--category-map", '{"1": "Person", "1": "Torso"}', "bad.json: repeated key '1'"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "alpha_fn": 0.5, "alpha_fp": 0.3, "tau": 0.5}',
     "bad.json: repeated key 'alpha_fp'"),
    ("--operating-point", '{"conf": {"Person": 0.5, "Person": 0.4}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5}',
     "bad.json: repeated key 'Person'"),
    ("--config", '{"seed": 1, "seed": 2}', "bad.json: repeated key 'seed'"),
    # An annotation id is any JSON value: the one-line message shows its line breaks escaped.
    ("--gt", '{"images": [{"id": 1}], "annotations": '
             '[{"id": "a\\nb\\u001e", "image_id": 1, "category_id": 7, "bbox": [0, 0, 1, 1]}]}',
     "Error: annotation id a\\nb\\x1e: unmapped category id: 7"),
    # The top-level shape of each file, checked before any entry is read.
    ("--category-map", '[]', "Error: category map must be a JSON object: "),
    ("--gt", '{"images": []}', "Error: ground truth must contain 'images' and 'annotations' arrays: "),
    ("--persons", '{}', "Error: detection results must be a JSON array: "),
    # An operating point's missing key and unknown class are named as such.
    ("--operating-point", '{"alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5}',
     "Error: invalid operating point: missing key 'conf'"),
    ("--operating-point", '{"conf": {}, "alpha_fn": 0.5, "tau": 0.5}',
     "Error: invalid operating point: missing key 'alpha_fp'"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "tau": 0.5}',
     "Error: invalid operating point: missing key 'alpha_fn'"),
    ("--operating-point", '{"conf": {}, "alpha_fp": 0.5, "alpha_fn": 0.5}',
     "Error: invalid operating point: missing key 'tau'"),
    ("--operating-point", '{"conf": {"Person": 0.5, "Persn": 0.5}, "alpha_fp": 0.5, "alpha_fn": 0.5, "tau": 0.5}',
     "Error: invalid operating point: conf class 'Persn' is not one of ['Foot', 'Hand', 'Head', 'LowerArm', "
     "'LowerLeg', 'Person', 'Torso', 'UpperArm', 'UpperLeg']"),
], ids=["nan-bbox", "infinity-bbox", "overflow-bbox", "string-bbox", "string-score",
        "non-object-detection", "non-object-image", "non-object-annotation",
        "non-utf8-detections", "non-utf8-gt", "non-utf8-category-map", "non-utf8-operating-point",
        "non-utf8-config", "deep-nesting", "overflow-image-id", "overflow-gt-image-id",
        "overflow-category-id", "non-string-category-name", "repeated-category-map-id", "non-object-conf",
        "overflow-bbox-area", "overflow-bbox-edge", "huge-integer-bbox", "integer-beyond-digit-limit",
        "infinite-score", "integer-beyond-float-score", "negative-integer-beyond-float-score",
        "overflow-iou-union", "fractional-image-id", "boolean-image-id", "fractional-gt-image-id",
        "fractional-category-id", "boolean-category-id", "boolean-gt-category-id", "boolean-bbox",
        "boolean-score", "missing-score", "underscore-category-map-key", "non-ascii-category-map-key",
        "underscore-image-id", "non-ascii-space-gt-image-id", "non-ascii-category-id", "underscore-bbox",
        "non-ascii-bbox", "non-ascii-score", "padded-category-map-key", "padded-image-id",
        "padded-gt-image-id", "padded-category-id", "padded-bbox", "padded-score", "boolean-jitter-config",
        "non-object-config", "boolean-threshold", "padded-alpha", "underscore-alpha", "integer-strict-conf",
        "misspelt-strict-conf",
        "non-object-operating-point", "infinite-alpha", "integer-beyond-float-alpha",
        "negative-integer-beyond-float-alpha", "alpha-above-one",
        "tau-above-one", "tau-zero", "threshold-above-one", "missing-gt-image-id", "duplicate-gt-image-id",
        "negative-height-gt-bbox", "negative-height-bbox", "repeated-category-map-key",
        "repeated-operating-point-key", "repeated-conf-key", "repeated-config-key", "line-break-annotation-id",
        "non-object-category-map", "gt-without-annotations", "non-array-detections",
        "missing-conf", "missing-alpha-fp", "missing-alpha-fn", "missing-tau", "unknown-conf-class"])
def test_malformed_records_exit_2(tmp_path, flag, payload, fragment):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload if isinstance(payload, bytes) else payload.encode("utf-8"))
    if flag == "--config":
        args = ["synth", "--config", str(bad), "--out", str(tmp_path / "corpus")]
    else:
        # A repeated --category-map takes the last value, so the bad file wins.
        category_map = write_json(tmp_path / "map.json", {"1": "Person"})
        args = ["validate", "--category-map", category_map, flag, str(bad)]
    result = runner.invoke(cli, args)
    assert_input_error(result, fragment)


@pytest.mark.parametrize("bbox", ["[3, 4, 0, 10]", "[3, 4, 10, 0]", "[3, 4, -0.0, 10]"],
                         ids=["zero-width", "zero-height", "negative-zero-width"])
@pytest.mark.parametrize("flag, payload, message", [
    ("--gt", '{"images": [{"id": 1}], "annotations": [{"id": 5, "image_id": 1, "category_id": 1, "bbox": %s}]}',
     "annotation id 5: bbox width and height must be positive, got %s"),
    ("--persons", "[%s]" % (DET % ("%s", "0.9")), "detection #0: bbox width and height must be positive, got %s"),
], ids=["gt", "detections"])
def test_zero_extent_bbox_message(tmp_path, flag, payload, message, bbox):
    # _parse_bbox refuses a zero or -0.0 extent as it refuses a negative one, naming the entry.
    bad = tmp_path / "bad.json"
    bad.write_text(payload % bbox, encoding="utf-8")
    category_map = write_json(tmp_path / "map.json", {"1": "Person"})
    result = runner.invoke(cli, ["validate", "--category-map", category_map, flag, str(bad)])
    assert result.exit_code == 2
    assert result.output.splitlines() == ["Error: " + message % bbox]


_OK_DET = DET % ("[0, 0, 10, 10]", "0.9")
_OK_ANN = '{"id": 10, "image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]}'


@pytest.mark.parametrize("flag, payload, message", [
    ("--persons", "[%s, 5, %s]" % (_OK_DET, _OK_DET), "detection #1: expected a JSON object, got 5"),
    ("--persons", "[%s, %s, %s]" % (_OK_DET, DET % ("[0, 0, 10]", "0.9"), _OK_DET),
     "detection #1: bbox must be [x, y, w, h], got [0, 0, 10]"),
    ("--persons", "[%s, %s, %s]" % (_OK_DET, DET % ("[0, 0, 10, 10]", '"high"'), _OK_DET),
     "detection #1: score must be a number, got 'high'"),
    ("--gt", '{"images": [{"id": 1}, "x", {"id": 3}], "annotations": []}',
     "image entry #1: expected a JSON object, got 'x'"),
    ("--gt", '{"images": [{"id": 1}], "annotations": [%s, [1], %s]}' % (_OK_ANN, _OK_ANN),
     "annotation #1: expected a JSON object, got [1]"),
    ("--gt", '{"images": [{"id": 1}], "annotations": [%s, %s, %s]}'
     % (_OK_ANN, '{"id": 11, "image_id": 1, "category_id": 1, "bbox": [0, 0, 10, -1]}', _OK_ANN),
     "annotation id 11: bbox width and height must be positive, got [0, 0, 10, -1]"),
    ("--persons", "[%s, %s, %s, %s]" % (_OK_DET, _OK_DET, _OK_DET,
                                         _OK_DET.replace('"category_id": 1', '"category_id": 99')),
     "detection #3: unmapped category id: 99"),
    ("--gt", '{"images": [{"id": 1}], "annotations": [%s, %s]}'
     % (_OK_ANN, '{"id": 7, "image_id": 1, "category_id": 99, "bbox": [0, 0, 10, 10]}'),
     "annotation id 7: unmapped category id: 99"),
], ids=["non-object-detection", "short-bbox", "string-score", "non-object-image", "non-object-annotation",
        "negative-height-annotation", "unmapped-category-detection", "unmapped-category-annotation"])
def test_malformed_entry_mid_file_is_named(tmp_path, flag, payload, message):
    # The loaders release each decoded entry as they go; the message still shows the one at fault.
    bad = tmp_path / "bad.json"
    bad.write_text(payload, encoding="utf-8")
    category_map = write_json(tmp_path / "map.json", {"1": "Person"})
    result = runner.invoke(cli, ["validate", "--category-map", category_map, flag, str(bad)])
    assert result.exit_code == 2
    assert result.output.splitlines() == ["Error: " + message]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_commands_pause_and_restore_the_collector(tmp_path, corpus_dir, monkeypatch, enabled):
    seen = []  # the collector's state while each command loads its inputs
    load = cli_module.load_category_map

    def recording_load(path):
        seen.append(gc.isenabled())
        return load(path)

    monkeypatch.setattr(cli_module, "load_category_map", recording_load)
    bad = write_json(tmp_path / "bad.json", [5])
    category_map = str(corpus_dir / "category_map.json")
    commands = [(["validate", *corpus_args(corpus_dir)], 0),
                (["validate", "--category-map", category_map, "--persons", bad], 2)]
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for args, code in commands:
            result = runner.invoke(cli, args)
            assert result.exit_code == code, result.output
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == [False, False]


def _garbage_after_commands(tmp_path, n_scenes):
    """What gc.collect() finds after each of calibrate, evaluate and monitor run with the collector paused."""
    corpus = tmp_path / f"corpus{n_scenes}"
    result = runner.invoke(cli, ["synth", "--seed", "3", "--n-scenes", str(n_scenes), "--jitter", "2",
                                 "--out", str(corpus)])
    assert result.exit_code == 0, result.output
    op, args = str(tmp_path / "op.json"), corpus_args(corpus)
    commands = [
        ["calibrate", *args, "--out", op],
        ["evaluate", *args, "--operating-point", op, "--protocol", "per-object", "--out", str(tmp_path / "r.json")],
        ["monitor", *args[2:], "--operating-point", op, "--mode", "object", "--out", str(tmp_path / "m.jsonl")],
    ]
    before = gc.isenabled()
    gc.collect()
    gc.disable()
    found = []
    try:
        for command in commands:
            result = runner.invoke(cli, command)
            assert result.exit_code == 0, result.output
            found.append(gc.collect())
    finally:
        (gc.enable if before else gc.disable)()
    return found


def test_pausing_the_collector_leaves_no_garbage_that_grows_with_the_corpus(tmp_path):
    # 400 scenes hold about 20x the records of 20; a cycle per record or per scene would show here.
    small, large = _garbage_after_commands(tmp_path, 20), _garbage_after_commands(tmp_path, 400)
    assert all(big <= few + 20 for few, big in zip(small, large)), (small, large)


def test_part_box_whose_area_underflows_exits_2(tmp_path, corpus_dir):
    # Both sides are positive and finite, but w * h rounds to 0.0.
    parts_path = corpus_dir / "parts.json"
    parts = json.loads(parts_path.read_text())
    x, y = parts[0]["bbox"][:2]
    parts[0]["bbox"] = [x, y, 1e-200, 1e-200]
    write_json(parts_path, parts)
    out = tmp_path / "op.json"
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir), "--out", str(out)])
    assert_input_error(result, "detection #0: bbox area underflows to 0")
    assert not out.exists()


def test_alpha_grid_step_without_grid_point_exits_2(tmp_path, corpus_dir):
    # The step passes the open range check, but rounds to 1.0 at k = 1.
    out = tmp_path / "op.json"
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir),
                                 "--alpha-grid-step", "0.99999999999", "--out", str(out)])
    assert_input_error(result, "no grid point in (0, 1)")
    assert not out.exists()


def test_alpha_grid_step_that_rounds_to_zero_exits_2(tmp_path, corpus_dir):
    # Below 5e-11 every early grid value rounds to 0.0 at the grid's 10 decimals.
    out = tmp_path / "op.json"
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus_dir),
                                 "--alpha-grid-step", "1e-11", "--out", str(out)])
    assert_input_error(result, "rounds to 0")
    assert not out.exists()


def test_calibrate_without_detections_exits_2(tmp_path, corpus_dir):
    empty = write_json(tmp_path / "empty.json", [])
    out = tmp_path / "op.json"
    result = runner.invoke(cli, ["calibrate", "--gt", str(corpus_dir / "gt.json"), "--persons", empty,
                                 "--parts", empty, "--category-map", str(corpus_dir / "category_map.json"),
                                 "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.splitlines() == ["Error: no detections to calibrate on"]
    assert not out.exists()


def test_calibrate_at_the_finest_grid_step(tmp_path):
    # 1e-9 gives a grid of about 10^9 points; the sweep scores only the points where an alert flips.
    corpus, out = tmp_path / "corpus", tmp_path / "op.json"
    result = runner.invoke(cli, ["synth", "--seed", "7", "--n-scenes", "50", "--drop-person-prob", "0.2",
                                 "--ghost-person-prob", "0.2", "--jitter", "2", "--out", str(corpus)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(cli, ["calibrate", *corpus_args(corpus), "--alpha-grid-step", "1e-9", "--out", str(out)])
    assert result.exit_code == 0, result.output
    op = json.loads(out.read_text())
    for alpha in (op["alpha_fp"], op["alpha_fn"]):
        assert 0 < alpha < 1 and alpha == round(round(alpha / 1e-9) * 1e-9, 10)


@pytest.mark.parametrize("command", ["calibrate", "evaluate", "monitor"])
def test_unwritable_out_exits_2(tmp_path, corpus_dir, command):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    op_args = [] if command == "calibrate" else ["--operating-point", op]
    out = tmp_path / "no_such_dir" / "out.json"
    result = runner.invoke(cli, [command, *corpus_args(corpus_dir), *op_args, "--out", str(out)])
    assert_input_error(result, "no_such_dir")


@pytest.mark.parametrize("command", ["calibrate", "evaluate", "monitor"])
def test_unwritable_out_is_named_once(tmp_path, corpus_dir, command):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    op_args = [] if command == "calibrate" else ["--operating-point", op]
    out = tmp_path / "no_such_dir" / "out.json"
    result = runner.invoke(cli, [command, *corpus_args(corpus_dir), *op_args, "--out", str(out)])
    assert_input_error(result, f"Error: cannot write {out}: ")
    assert result.output.count(str(out)) == 1, result.output


def _writing_command_args(command, tmp_path, corpus_dir):
    """A small run of a writing command on the corpus, without its ``--out``."""
    op = write_json(tmp_path / "op.json", ZERO_OP)
    return {"synth": ["--n-scenes", "2"], "calibrate": corpus_args(corpus_dir),
            "evaluate": [*corpus_args(corpus_dir), "--operating-point", op],
            "monitor": [*corpus_args(corpus_dir)[2:], "--operating-point", op]}[command]


@pytest.mark.parametrize("command", ["synth", "calibrate", "evaluate", "monitor"])
def test_unwritable_sidecar_exits_2_before_the_summary(tmp_path, corpus_dir, command):
    # The boundary writes the sidecar before it echoes the summary: a run that cannot record itself reports no success.
    args = _writing_command_args(command, tmp_path, corpus_dir)
    out = tmp_path / ("new_corpus" if command == "synth" else "out.json")
    sidecar = out / "corpus.manifest.json" if command == "synth" else Path(f"{out}.manifest.json")
    sidecar.mkdir(parents=True)
    result = runner.invoke(cli, [command, *args, "--out", str(out)])
    assert_input_error(result, f"Error: cannot write {sidecar}: Is a directory")
    assert result.output == f"Error: cannot write {sidecar}: Is a directory\n"
    # Refused before anything is written: neither --out nor synth's corpus files exist.
    assert ([path.name for path in out.iterdir()] == [sidecar.name]) if command == "synth" else not out.exists()


@pytest.mark.parametrize("command", ["synth", "calibrate", "evaluate", "monitor"])
def test_summary_names_out_as_given(tmp_path, corpus_dir, monkeypatch, command):
    args = _writing_command_args(command, tmp_path, corpus_dir)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(cli, [command, *args, "--out", f"./{command}"])
    assert result.exit_code == 0, result.output
    assert f"-> ./{command}" in result.output, result.output


@pytest.mark.parametrize("command", ["synth", "calibrate", "evaluate", "monitor"])
def test_a_summary_quoting_a_line_break_stays_one_line(tmp_path, corpus_dir, monkeypatch, command):
    args = _writing_command_args(command, tmp_path, corpus_dir)
    monkeypatch.chdir(tmp_path)
    out = "c\nd" if command == "synth" else "op\nx.json"
    result = runner.invoke(cli, [command, *args, "--out", out])
    assert result.exit_code == 0, result.output
    assert len(result.stdout.splitlines()) == 1, result.stdout
    assert "-> " + out.replace("\n", "\\n") in result.stdout, result.stdout


@pytest.mark.parametrize("command", ["synth", "calibrate", "evaluate", "monitor"])
def test_the_boundary_is_the_only_writer(tmp_path, corpus_dir, monkeypatch, command):
    # Every file goes through the boundary's write_text, in _outputs order, and nothing else is written.
    recorded, write_text = [], cli_module.write_text

    def recording_write_text(path, chunks):
        recorded.append(Path(path))
        write_text(path, chunks)

    monkeypatch.setattr(cli_module, "write_text", recording_write_text)
    args = _writing_command_args(command, tmp_path, corpus_dir)
    location = tmp_path / "outputs"
    if command == "synth":
        names = ["gt.json", "persons.json", "parts.json", "category_map.json", "labels.json", "corpus.manifest.json"]
        out = location
    else:
        names, out = ["out.json", "out.json.manifest.json"], location / "out.json"
        location.mkdir()
    result = runner.invoke(cli, [command, *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert recorded == [location / name for name in names]
    assert sorted(path.name for path in location.iterdir()) == sorted(names)


def test_every_command_is_the_boundary_class():
    assert cli.commands and all(type(command) is cli_module._PartmonCommand for command in cli.commands.values())


def _command_args(command, corpus_dir, op, config):
    """A run of ``command`` on the corpus that reads ``op`` and ``config``, without its ``--out``."""
    detections = corpus_args(corpus_dir) if command != "monitor" else corpus_args(corpus_dir)[2:]
    op_args = [] if command == "calibrate" else ["--operating-point", op]
    return [command, *detections, *op_args, "--config", config]


@pytest.mark.parametrize("command, flag, written", [
    ("calibrate", "--gt", "out"),
    ("calibrate", "--config", "sidecar"),
    ("calibrate", "--category-map", "link"),
    ("evaluate", "--gt", "out"),
    ("evaluate", "--operating-point", "sidecar"),
    ("evaluate", "--config", "link"),
    ("monitor", "--operating-point", "out"),
    ("monitor", "--persons", "sidecar"),
    ("monitor", "--parts", "link"),
])
def test_out_that_names_an_input_is_refused(tmp_path, corpus_dir, command, flag, written):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    args = _command_args(command, corpus_dir, op, write_json(tmp_path / "cfg.json", {"threads": 1}))
    index = args.index(flag) + 1
    out = tmp_path / "out.json"
    source = {"out": out, "sidecar": Path(f"{out}.manifest.json"), "link": tmp_path / "in.json"}[written]
    source.write_bytes(Path(args[index]).read_bytes())
    if written == "link":  # another name for the same file
        out.symlink_to(source)
    args[index] = str(source)
    before, files = source.read_bytes(), sorted(tmp_path.iterdir())
    result = runner.invoke(cli, [*args, "--out", str(out)])
    shown = source if written == "sidecar" else out
    assert_input_error(result, f"Error: cannot write {shown}: it is the {flag} input")
    assert source.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == files


def test_out_that_names_an_input_from_the_config_is_refused(tmp_path, corpus_dir):
    # The check runs after --config is applied: monitor takes --gt from it here.
    op = write_json(tmp_path / "op.json", ZERO_OP)
    out = tmp_path / "gt.json"
    out.write_bytes((corpus_dir / "gt.json").read_bytes())
    before = out.read_bytes()
    args = _command_args("monitor", corpus_dir, op, write_json(tmp_path / "cfg.json", {"gt": str(out)}))
    result = runner.invoke(cli, [*args, "--out", str(out)])
    assert_input_error(result, f"Error: cannot write {out}: it is the --gt input")
    assert out.read_bytes() == before


# synth's --out is a directory, so its outputs are the corpus files and the manifest inside it.
@pytest.mark.parametrize("written", ["same", "link"])
@pytest.mark.parametrize("name", ["gt.json", "persons.json", "parts.json", "category_map.json", "labels.json",
                                  "corpus.manifest.json"])
def test_synth_output_that_is_its_config_is_refused(tmp_path, name, written):
    out = tmp_path / "corpus"
    out.mkdir()
    config = write_json(out / name if written == "same" else tmp_path / "cfg.json", {"n_scenes": 2})
    if written == "link":  # another name for the same file
        (out / name).symlink_to(config)
    before, files = Path(config).read_bytes(), sorted(tmp_path.rglob("*"))
    result = runner.invoke(cli, ["synth", "--config", config, "--out", str(out)])
    assert_input_error(result, f"Error: cannot write {out / name}: it is the --config input")
    assert Path(config).read_bytes() == before
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("where", ["beside", "inside"])
def test_synth_config_that_it_does_not_write_is_read(tmp_path, where):
    out = tmp_path / "corpus"
    out.mkdir()
    config = write_json((tmp_path if where == "beside" else out) / "cfg.json", {"n_scenes": 2})
    before = Path(config).read_bytes()
    result = runner.invoke(cli, ["synth", "--config", config, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "2 scenes" in result.output
    assert Path(config).read_bytes() == before


def test_synth_out_below_a_file_is_named_once(tmp_path):
    (tmp_path / "afile").write_text("not a directory")
    out = tmp_path / "afile" / "sub"
    result = runner.invoke(cli, ["synth", "--n-scenes", "2", "--out", str(out)])
    assert_input_error(result, f"Error: cannot write {out}: Not a directory")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_utf8_system_label_exits_2_and_writes_nothing(tmp_path, corpus_dir, fmt, source):
    # A non-UTF-8 argument such as $'\xff' reaches Python as a lone surrogate.
    op = write_json(tmp_path / "op.json", ZERO_OP)
    config = write_json(tmp_path / "cfg.json", {"system": "\udcff"})
    label = ["--system", "\udcff"] if source == "flag" else ["--config", config]
    out = tmp_path / f"report.{fmt}"
    result = runner.invoke(cli, ["evaluate", *corpus_args(corpus_dir), "--operating-point", op, "--format", fmt,
                                 *label, "--out", str(out)])
    assert_input_error(result, "Error: --system label is not valid UTF-8: '\\udcff'")
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_a_config_key_in_the_config_is_ignored(tmp_path):
    # --config is always a flag, and flags win over the config, so its own key never applies.
    config = write_json(tmp_path / "cfg.json", {"config": str(tmp_path / "missing.json"), "n_scenes": 2})
    result = runner.invoke(cli, ["synth", "--config", config, "--out", str(tmp_path / "corpus")])
    assert result.exit_code == 0, result.output
    assert "2 scenes" in result.output


def test_monitor_output_identical_across_thread_counts(tmp_path, corpus_dir):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    blobs = set()
    for threads in ("1", "3", "8"):
        out = tmp_path / f"alerts_t{threads}.jsonl"
        result = runner.invoke(
            cli,
            ["monitor", "--gt", str(corpus_dir / "gt.json"),
             "--persons", str(corpus_dir / "persons.json"),
             "--parts", str(corpus_dir / "parts.json"),
             "--category-map", str(corpus_dir / "category_map.json"),
             "--operating-point", op, "--mode", "object",
             "--threads", threads, "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        blobs.add(out.read_bytes())
    assert len(blobs) == 1


def test_monitor_output_references_manifest(tmp_path, corpus_dir):
    op = write_json(tmp_path / "op.json", ZERO_OP)
    out = tmp_path / "alerts.jsonl"
    result = runner.invoke(
        cli,
        ["monitor", "--persons", str(corpus_dir / "persons.json"),
         "--parts", str(corpus_dir / "parts.json"),
         "--category-map", str(corpus_dir / "category_map.json"),
         "--operating-point", op, "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "alerts.jsonl.manifest.json").read_text())
    assert manifest["report"] == "alerts.jsonl"
    assert manifest["command"] == "monitor"
    assert "sha256" in manifest["inputs"]["persons"]


# Arbitrary JSON, plus records shaped like each input file whose fields are
# sometimes arbitrary JSON, so the fuzzing also reaches past the shape checks.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _mostly(shaped, otherwise=_json):
    """``shaped`` three times in four, otherwise ``otherwise``."""
    return st.sampled_from([shaped, shaped, shaped, otherwise]).flatmap(lambda strategy: strategy)


_numbers = _mostly(st.integers(0, 12), st.integers() | st.floats()
                   | st.sampled_from([10**400, 1e200, 1e308, 1e-200]))
_ids = _mostly(st.just(1))
_boxes = _mostly(st.lists(_numbers, min_size=4, max_size=4))
_detection = st.fixed_dictionaries(
    {"image_id": _ids, "category_id": _ids, "bbox": _boxes}, optional={"score": _mostly(_numbers)}
)
_gt = _mostly(st.fixed_dictionaries({
    "images": st.lists(_mostly(st.fixed_dictionaries({"id": _ids})), max_size=2),
    "annotations": st.lists(_mostly(st.fixed_dictionaries(
        {"id": _ids, "image_id": _ids, "category_id": _ids, "bbox": _boxes})), max_size=2),
}))
_detections = _mostly(st.lists(_mostly(_detection), max_size=2))
_class_names = st.sampled_from([c.value for c in DetectionClass])
_category_map = _mostly(st.fixed_dictionaries({"1": _mostly(_class_names)}, optional={"2": _class_names}))
_operating_point = _mostly(st.fixed_dictionaries({
    "conf": _mostly(st.dictionaries(_class_names | st.text(max_size=5), _mostly(_numbers), max_size=2)),
    "alpha_fp": _mostly(st.just(0.5), _numbers), "alpha_fn": _mostly(st.just(0.5), _numbers),
    "tau": _mostly(st.just(0.5), _numbers),
}))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gt=_gt, persons=_detections, category_map=_category_map, operating_point=_operating_point)
def test_validate_arbitrary_json_exits_0_or_2(tmp_path, gt, persons, category_map, operating_point):
    args = ["validate"]
    for flag, payload in (("--gt", gt), ("--persons", persons), ("--category-map", category_map),
                          ("--operating-point", operating_point)):
        path = tmp_path / (flag[2:] + ".json")
        path.write_text(json.dumps(payload), encoding="utf-8")
        args += [flag, str(path)]
    result = runner.invoke(cli, args)
    assert result.exit_code in (0, 2), result.output
    assert "Traceback" not in result.output
    *summary, last = result.output.strip().splitlines()
    # validate reports each file as it loads it and warns of entries on unknown images,
    # then "ok" or a one-line error.
    assert all(line.startswith(("gt: ", "persons: ", "operating point: "))
               or (line.startswith("warning: ") and "references unknown image id" in line)
               for line in summary), result.output
    assert last == "ok" if result.exit_code == 0 else last.startswith("Error: "), result.output


@pytest.fixture(scope="module")
def config_inputs(tmp_path_factory):
    """A small corpus and its operating point, for runs whose config is fuzzed."""
    root = tmp_path_factory.mktemp("config_inputs")
    corpus = root / "corpus"
    for args in (["synth", "--seed", "5", "--n-scenes", "6", "--out", str(corpus)],
                 ["calibrate", *corpus_args(corpus), "--out", str(root / "op.json")]):
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
    return corpus, str(root / "op.json")


def _small(config):
    """``generate`` of at most 3 scenes of at most 3 persons: the corpus size is not under test."""
    lo, hi = config.persons_per_scene
    return generate(replace(config, n_scenes=min(config.n_scenes, 3), persons_per_scene=(min(lo, 3), min(hi, 3))))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_arbitrary_json_exits_0_or_2(tmp_path, config_inputs, monkeypatch, data):
    monkeypatch.setattr(partmon.synth, "generate", _small)  # synth imports it when it runs
    corpus, op = config_inputs
    args = {
        "synth": ["synth"],
        "calibrate": ["calibrate", *corpus_args(corpus)],
        "evaluate": ["evaluate", *corpus_args(corpus), "--operating-point", op],
        "monitor": ["monitor", *corpus_args(corpus)[2:], "--operating-point", op],  # --gt only from the config
    }[data.draw(st.sampled_from(["synth", "calibrate", "evaluate", "monitor"]))]
    names = [param.name for param in cli.commands[args[0]].params if param.name != "config"]
    config = tmp_path / "config.json"
    values = _json | st.integers(0, 12) | st.floats(0, 1)  # with values most options accept
    config.write_text(json.dumps(data.draw(st.dictionaries(st.sampled_from(names), values, min_size=1, max_size=3))),
                      encoding="utf-8")
    result = runner.invoke(cli, [*args, "--config", str(config), "--out", str(tmp_path / args[0])])
    assert result.exit_code in (0, 2), result.output
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert result.output.strip().splitlines()[-1].startswith("Error: "), result.output
    elif args[0] == "synth":
        assert len(json.loads((tmp_path / "synth" / "gt.json").read_text())["images"]) <= 3
