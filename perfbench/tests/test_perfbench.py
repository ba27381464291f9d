"""Tests of the benchmark itself: metric coverage, the correctness gate, set-up failures.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import crowd  # noqa: E402
import gate  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
from partmon.calibration import OperatingPoint, apply_confidence_thresholds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                  "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_without_sources_the_benchmark_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _bench("--workload", "sparse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_crowd_corpus_is_a_function_of_the_seed():
    assert crowd.generate(7, 5) == crowd.generate(7, 5)
    assert crowd.generate(7, 5) != crowd.generate(8, 5)


@pytest.fixture(scope="module", params=["existential", "greedy"])
def outputs(request, tmp_path_factory):
    """CLI outputs on a small crowd corpus, and the scenes the gate checks them on."""
    workload = run.Workload("crowd", 12, 1, request.param)
    with run.Run(workload, tmp_path_factory.mktemp(request.param)) as r:
        inp = run.make_corpus(r, workload, 5, 12, "corpus")
        for command in ("validate", *run.LOOP):
            r.invoke(command)
        assert not r.failures, r.problems
        none = replay.NullTracer()
        op = OperatingPoint.load(inp.op)
        yield {
            "run": r,
            "inp": inp,
            "cli": run.cli_results(r),
            "cal": apply_confidence_thresholds(replay.gt_scenes(none, inp)[0], op.conf_thresholds),
            "live": apply_confidence_thresholds(replay.live_scenes(none, inp), op.conf_thresholds),
        }


def _problems(o, cli) -> dict[str, list[str]]:
    found = gate.check_evaluate(cli["evaluate_image"], cli["evaluate_object"], o["cal"], cli["calibrate"],
                                o["inp"].matching)
    found["calibrate"] = gate.check_alphas(cli["calibrate"], o["cal"], o["inp"].matching, replay.GRID_STEP)
    for mode in ("image", "object"):
        found[f"monitor_{mode}"] = gate.check_monitor(cli[f"monitor_{mode}_text"], o["live"], cli["calibrate"], mode)
    return {command: p for command, p in found.items() if p}


def test_gate_accepts_the_cli_outputs_and_the_replays_match_them(outputs):
    assert _problems(outputs, outputs["cli"]) == {}
    _, decoded = run.decode_inputs(Path(outputs["inp"].gt).parent)
    assert gate.check_validate(outputs["run"].stdout["validate"], decoded) == []
    for command in replay.COMMANDS:
        assert replay.replay(command, replay.Tracer("t"), outputs["inp"]) == outputs["cli"][command]


def test_gate_catches_a_corrupted_report(outputs):
    cli = copy.deepcopy(outputs["cli"])
    cli["evaluate_image"]["fp_alert"]["tp"] += 1
    cli["evaluate_object"]["confusion"]["tp_gt_fp_mon"] += 1
    assert set(_problems(outputs, cli)) == {"evaluate_image", "evaluate_object"}


def test_gate_catches_a_corrupted_jsonl_line(outputs):
    cli = dict(outputs["cli"])
    lines = cli["monitor_image_text"].splitlines()
    record = json.loads(lines[2])
    record["alert_fp"] = not record["alert_fp"]
    lines[2] = json.dumps(record, sort_keys=True)
    cli["monitor_image_text"] = "\n".join(lines) + "\n"

    lines = cli["monitor_object_text"].splitlines()
    record = json.loads(lines[0])
    record["fp_mon"].append(record["tp_mon"].pop())
    lines[0] = json.dumps(record, sort_keys=True)
    cli["monitor_object_text"] = "\n".join(lines) + "\n"
    assert set(_problems(outputs, cli)) == {"monitor_image", "monitor_object"}


def test_gate_catches_alphas_that_are_not_the_mcc_argmax(outputs):
    op = dict(outputs["cli"]["calibrate"])
    op["alpha_fp"] = 0.95 if op["alpha_fp"] != 0.95 else 0.05
    assert gate.check_alphas(op, outputs["cal"], outputs["inp"].matching, replay.GRID_STEP)


def test_gate_catches_wrong_validate_counts(outputs):
    _, decoded = run.decode_inputs(Path(outputs["inp"].gt).parent)
    decoded["parts"] += 1
    assert gate.check_validate(outputs["run"].stdout["validate"], decoded)


def test_a_changed_output_fails_the_invocation(outputs):
    r = outputs["run"]
    before = r.failures["monitor_image"]
    r.digests["monitor_image"] = "0" * 64
    r.invoke("monitor_image")
    assert r.failures["monitor_image"] == before + 1
