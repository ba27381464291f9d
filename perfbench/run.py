"""partmon benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sparse,crowd,greedy} --seed N \\
        --seconds S --trace {0,1}

Run from a partmon checkout; the program is imported and executed from its
``src/`` directory. The run generates the workload's corpus from the seed,
then:

* set-up: ``partmon validate`` several times (``setup_s``) and one
  ``calibrate`` to get the operating point;
* for ``--seconds``: rounds of ``calibrate``, ``evaluate`` in both protocols
  and ``monitor`` in both modes, each a subprocess (started by
  ``launcher.py``) timed from start to exit one after another, and
  (``--trace 0``) a pass over at least 1000 distinct live frames in-process,
  each timed alone. With ``--trace 1`` each round also runs ``validate`` and
  follows every command by its in-process replay, untraced and traced, instead
  of the frames (see ``replay.py``);
* the correctness gate (``gate.py``), outside every timed region.

End-to-end times are scaled by the speed of the task in ``reference.py``,
measured around each of them; see README.md.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Lines before it give every metric with
its sample count, the calibrated alphas and the environment. A JSON record
of the run, with the spans of a traced run, is written under
``perfbench/_out/``. Exits 2 without a result when the checkout has no
``src/partmon``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    generator: str  # "synth" (partmon synth --jitter 2) or "crowd" (crowd.py)
    scenes: int
    threads: int
    matching: str
    synth_flags: tuple[str, ...] = ()


# Scene counts keep one run under 45 s on 2 cores, so the whole benchmark
# fits its time budget, with 4-6 rounds a run; see README.md for why each
# workload exists. The greedy sweep costs O(detections x images), so its
# corpus has a fixed number of persons per scene: with synth's default 1-4
# the cost varies by a quarter between seeds.
WORKLOADS = {
    "sparse": Workload("synth", 2000, 1, "existential"),
    "crowd": Workload("crowd", 100, 2, "existential"),
    "greedy": Workload("synth", 120, 1, "greedy",
                       ("--persons-per-scene", "3:3", "--parts-per-person", "3:4")),
}

END_TO_END = {
    "setup_s": "s", "calibrate_s": "s", "evaluate_image_s": "s", "evaluate_object_s": "s",
    "monitor_image_s": "s", "monitor_object_s": "s", "frame_p50_us": "us", "frame_p99_us": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "datamodel.json_decode_s": "s", "datamodel.load_gt_s": "s", "datamodel.load_dets_s": "s",
    "datamodel.records_per_s": "1/s", "datamodel.filter_s": "s", "datamodel.group_s": "s",
    "datamodel.dets_kept_ratio": "ratio",
    "calibration.conf_sweep_s": "s", "calibration.conf_candidates": "count",
    "calibration.apply_conf_s": "s", "calibration.conf_kept_ratio": "ratio",
    "calibration.alpha_sweep_s": "s", "calibration.alpha_grid_points": "count",
    "calibration.alpha_useful_ratio": "ratio", "calibration.alpha_fp": "alpha", "calibration.alpha_fn": "alpha",
    "partition.total_s": "s", "partition.calls": "count", "partition.iou_pairs": "count",
    "partition.ns_per_pair": "ns",
    "monitor.per_image_s": "s", "monitor.per_object_s": "s", "monitor.overlap_pairs": "count",
    "monitor.ns_per_pair": "ns", "monitor.alert_fp_scenes": "count", "monitor.alert_fn_scenes": "count",
    "evaluation.per_image_counts_s": "s", "evaluation.object_confusion_s": "s", "evaluation.render_s": "s",
    "geometry.intersection_ns": "ns", "geometry.iou_ns": "ns",
    "cli.import_s": "s",
    "cli.validate.residual_s": "s", "cli.calibrate.residual_s": "s",
    "cli.evaluate_image.residual_s": "s", "cli.evaluate_object.residual_s": "s",
    "cli.monitor_image.residual_s": "s", "cli.monitor_object.residual_s": "s",
    "cli.monitor_object.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}

SETUP_REPS = 5
MIN_FRAMES = 1000
FRAME_SCENES = 1000
MIN_FRAME_PASS_S = 0.5
FRAME_CHUNK = 50

# On a 2-core VM whose host runs other guests, speed changes by up to 2x
# within seconds, so raw wall times of one seed spread by 20-50% between runs.
# Every end-to-end time is therefore scaled by the speed of the fixed task
# in reference.py, run right before and after it:
#     value = wall * REF / (mean of the two reference times).
# CLI commands are scaled by the task run as a subprocess, frames by
# ``task(1)`` run in-process between chunks of frames. REF_PROC_S and
# REF_INPROC_S are the task's times on a fast 2-core machine, so values read
# as seconds (or microseconds) at that speed. Per-layer metrics stay raw.
REF_PROC_S = 0.065
REF_INPROC_S = 0.0015
TIMEOUT_S = 150
# One round. calibrate, the longest and noisiest command, runs twice.
LOOP = ("calibrate", "evaluate_image", "evaluate_object", "calibrate", "monitor_image", "monitor_object")
OUTPUTS = {
    "calibrate": "op.json", "evaluate_image": "eval_image.json", "evaluate_object": "eval_object.json",
    "monitor_image": "monitor_image.jsonl", "monitor_object": "monitor_object.jsonl",
}


def command_lines(w: Workload) -> dict[str, list[str]]:
    """The argv of each timed command, relative to the run's work directory."""
    inputs = ["--gt", "corpus/gt.json", "--persons", "corpus/persons.json",
              "--parts", "corpus/parts.json", "--category-map", "corpus/category_map.json"]
    threads = ["--threads", str(w.threads)]
    scored = [*inputs, "--matching", w.matching, *threads]
    live = [*inputs[2:], *threads, "--operating-point", "op.json"]
    return {
        "validate": ["validate", *inputs],
        "calibrate": ["calibrate", *scored, "--out", OUTPUTS["calibrate"]],
        "evaluate_image": ["evaluate", *scored, "--operating-point", "op.json",
                           "--protocol", "per-image", "--out", OUTPUTS["evaluate_image"]],
        "evaluate_object": ["evaluate", *scored, "--operating-point", "op.json",
                            "--protocol", "per-object", "--out", OUTPUTS["evaluate_object"]],
        "monitor_image": ["monitor", *live, "--mode", "image", "--out", OUTPUTS["monitor_image"]],
        "monitor_object": ["monitor", *live, "--mode", "object", "--out", OUTPUTS["monitor_object"]],
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = [f"{v:.2f}" for v in os.getloadavg()]
    return {"commit": _commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": " ".join(loadavg)}


def median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    """Invokes the CLI, keeps samples, and counts attempted and failed operations.

    Programs run through ``launcher.py``, started before the benchmark loads
    any corpus; close the run (or use it as a context manager) to stop it.
    """

    def __init__(self, workload: Workload, work: Path):
        self.work = work
        self.argv = command_lines(workload)
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.ref_before: float | None = None
        self.events: list[tuple[str, float]] = []  # wall times of commands and references, in order
        self.invocations: Counter = Counter()
        self.failures: Counter = Counter()
        self.digests: dict[str, str] = {}
        self.stdout: dict[str, str] = {}
        self.rss_kb = 0
        self.problems: list[str] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str]) -> tuple[int, float, int, str]:
        """Run ``python argv`` to completion: (exit code, wall seconds, peak RSS KiB, stdout)."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        request = {"argv": [sys.executable, *argv], "cwd": str(self.work),
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.launcher.wait()}")
        reply = json.loads(line)
        if reply["code"] != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"{' '.join(argv[:3])}: exit {reply['code']} {tail}")
        return reply["code"], reply["wall"], reply["maxrss_kb"], out_path.read_text(errors="replace")

    def reference(self) -> float:
        """Wall seconds of ``python perfbench/reference.py``."""
        code, wall, _, _ = self.spawn([str(HERE / "reference.py")])
        if code != 0:
            raise RuntimeError(f"reference task failed: {self.problems[-1]}")
        self.events.append(("ref", wall))
        return wall

    def invoke(self, command: str) -> None:
        """One timed CLI operation; a non-zero exit or output that differs from the first run fails it.

        The reference runs before and after it; the last one is reused as the
        next command's "before" until ``ref_before`` is reset.
        """
        self.invocations[command] += 1
        before = self.ref_before if self.ref_before is not None else self.reference()
        code, wall, rss_kb, stdout = self.spawn(["-m", "partmon.cli", *self.argv[command]])
        self.ref_before = self.reference()
        if code != 0:
            self.failures[command] += 1
            return
        self.rss_kb = max(self.rss_kb, rss_kb)
        self.samples[command].append(wall)
        self.events.insert(len(self.events) - 1, (command, wall))
        self.scaled[command].append(wall * REF_PROC_S * 2 / (before + self.ref_before))
        self.stdout[command] = stdout
        digest = hashlib.sha256(stdout.encode() if command == "validate" else b"")
        if command != "validate":
            out = self.work / OUTPUTS[command]
            digest.update(out.read_bytes())
            digest.update(Path(str(out) + ".manifest.json").read_bytes())
        if self.digests.setdefault(command, digest.hexdigest()) != digest.hexdigest():
            self.failures[command] += 1
            self.problems.append(f"{command}: output differs from its first run")

    def failed(self, bad_commands) -> int:
        """Failed invocations, counting every invocation of a command whose output failed the gate."""
        return sum(n if c in bad_commands else self.failures[c] for c, n in self.invocations.items())


def make_corpus(run: Run, w: Workload, seed: int, scenes: int, out: str) :
    """Generate ``scenes`` scenes into ``work/out``; both generators make the first k scenes
    of a larger corpus identical to a k-scene corpus of the same seed."""
    if w.generator == "crowd":
        import crowd
        crowd.write(seed, scenes, run.work / out)
    else:
        code, _, _, _ = run.spawn(["-m", "partmon.cli", "synth", "--seed", str(seed), "--n-scenes", str(scenes),
                                   "--jitter", "2", *w.synth_flags, "--out", out])
        if code != 0:
            raise RuntimeError(f"partmon synth failed: {run.problems[-1]}")
    import replay
    from partmon.partition import MatchingMode
    return replay.Inputs(gt=str(run.work / out / "gt.json"), persons=str(run.work / out / "persons.json"),
                         parts=str(run.work / out / "parts.json"),
                         category_map=str(run.work / out / "category_map.json"), op=str(run.work / "op.json"),
                         matching=MatchingMode(w.matching), threads=w.threads)


def decode_inputs(corpus: Path) -> tuple[float, dict]:
    """The benchmark's own ``json.loads`` of the three input files: (seconds, counts)."""
    start = time.perf_counter()
    gt, persons, parts = (json.loads((corpus / f"{n}.json").read_text(encoding="utf-8"))
                          for n in ("gt", "persons", "parts"))
    elapsed = time.perf_counter() - start
    return elapsed, {"images": len(gt["images"]), "annotations": len(gt["annotations"]),
                     "persons": len(persons), "parts": len(parts)}


def inproc_reference() -> float:
    import reference
    start = time.perf_counter()
    reference.task(1)
    return time.perf_counter() - start


def ns_per_call(fn, pairs) -> float:
    start = time.perf_counter_ns()
    for a, b in pairs:
        fn(a, b)
    return (time.perf_counter_ns() - start) / max(len(pairs), 1)


def cli_results(run: Run) -> dict:
    """What each command wrote, in the form ``replay.replay`` returns it."""
    import gate
    out = {"validate": gate.parse_validate(run.stdout.get("validate", ""))}
    for command, name in OUTPUTS.items():
        path = run.work / name
        try:
            text = path.read_text(encoding="utf-8")
            if command.startswith("monitor"):
                lines = [json.loads(line) for line in text.splitlines()]
                if command == "monitor_image":
                    out[command] = [(r["image_id"], r["alert_fp"], r["alert_fn"]) for r in lines]
                else:
                    out[command] = [(r["image_id"], *(tuple(d["det_id"] for d in r[k])
                                                      for k in ("tp_mon", "fp_mon", "fn_mon")))
                                    for r in lines]
                out[command + "_text"] = text
            else:
                report = json.loads(text)
                report.pop("manifest", None)
                out[command] = report
        except (OSError, ValueError, KeyError, TypeError) as exc:
            run.problems.append(f"{command}: unreadable output {name}: {exc!r}")
            out[command] = None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's scene count (tests use a tiny corpus)")
    args = parser.parse_args(argv)

    if not (SRC / "partmon" / "cli.py").is_file():
        print(f"error: no partmon sources at {SRC}; run from a partmon checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    env = environment()

    w = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Run(w, work) as run:
            return bench(args, w, run, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def bench(args, w: Workload, run: Run, env: dict) -> int:
    import gate
    import replay
    from partmon.calibration import OperatingPoint, alpha_grid, apply_confidence_thresholds
    from partmon.geometry import intersection_area, iou
    from partmon.monitor import per_image_rule, per_object_rule
    from partmon.oracle import oracle_per_object

    work = run.work
    scenes_n = max(10, round(w.scenes * args.scale))
    phases = {"start": time.perf_counter()}
    inp = make_corpus(run, w, args.seed, scenes_n, "corpus")
    # Live frames need many distinct scenes, so that p99 rests on more than
    # the few largest scenes of a small corpus.
    frame_scenes_n = max(scenes_n, round(FRAME_SCENES * args.scale))
    frames_inp = inp if frame_scenes_n == scenes_n else make_corpus(run, w, args.seed, frame_scenes_n, "frames")
    phases["corpus"] = time.perf_counter()

    # Set-up: validate pays process start plus input parsing, as every command does.
    for _ in range(SETUP_REPS):
        run.invoke("validate")
    run.invoke("calibrate")
    if run.failures["calibrate"]:
        raise RuntimeError(f"set-up calibrate failed: {run.problems}")

    phases["setup"] = time.perf_counter()
    # In-process inputs for frames, replays and the gate, built before any timing.
    none = replay.NullTracer()
    op = OperatingPoint.load(inp.op)
    cal_scenes = apply_confidence_thresholds(replay.gt_scenes(none, inp)[0], op.conf_thresholds)
    live = apply_confidence_thresholds(replay.live_scenes(none, inp), op.conf_thresholds)
    live_raw = replay.live_scenes(none, frames_inp)
    expected_frames = [replay.verdict_ids(oracle_per_object(s.persons, s.parts, op.alpha_fp, op.alpha_fn))
                       for s in apply_confidence_thresholds(live_raw, op.conf_thresholds)]
    _, decoded = decode_inputs(work / "corpus")
    gc.collect()
    gc.freeze()
    phases["prepare"] = time.perf_counter()

    frames_ns: list[int] = []
    frames_scaled: list[list[float]] = []
    frame_failures = Counter()
    residual: dict[str, list[float]] = defaultdict(list)
    layer: dict[str, list[float]] = defaultdict(list)
    tracers: list = []
    replayed: list[tuple[str, object]] = []
    pairs_pp = [(p.box, q.box) for s in live for p in s.persons for q in s.parts]
    pairs_iou = [(d.box, g.box) for s in cal_scenes for d in s.persons for g in s.gt_persons()]

    def frame_pass():
        conf, a_fp, a_fn = op.conf_thresholds, op.alpha_fp, op.alpha_fn
        n = max(MIN_FRAMES, len(live_raw))
        frames_scaled.append([])
        before = inproc_reference()
        deadline = time.perf_counter() + MIN_FRAME_PASS_S
        chunk = 0
        while chunk < n or time.perf_counter() < deadline:
            latencies = []
            for i in range(chunk, chunk + FRAME_CHUNK):
                k = i % len(live_raw)
                start = time.perf_counter_ns()
                try:
                    scene = apply_confidence_thresholds([live_raw[k]], conf)[0]
                    verdict = per_object_rule(scene.persons, scene.parts, a_fp, a_fn)
                except Exception as exc:  # a failed frame is counted, the run goes on
                    frame_failures[repr(exc)] += 1
                    continue
                latencies.append(time.perf_counter_ns() - start)
                if replay.verdict_ids(verdict) != expected_frames[k]:
                    frame_failures["verdict differs from oracle_per_object"] += 1
            after = inproc_reference()
            frames_ns.extend(latencies)
            frames_scaled[-1].extend(ns * REF_INPROC_S * 2 / (before + after) for ns in latencies)
            before = after
            chunk += FRAME_CHUNK

    def replay_round(index: int):
        """Each command on the CLI, then untraced and (once a round) traced in-process, back to back.

        Pairs measured back to back see the same machine speed, so their
        differences (the CLI residual, the tracing overhead) are not swamped
        by its swings.
        """
        tracer = replay.Tracer(f"{args.workload}-s{args.seed}-r{index}")
        overhead = 0.0
        for command in ("validate", *LOOP):
            samples = len(run.samples[command])
            run.invoke(command)
            start = time.perf_counter()
            replayed.append((command, replay.replay(command, none, inp)))
            untraced = time.perf_counter() - start
            if len(run.samples[command]) > samples:
                residual[command].append(run.samples[command][-1] - untraced)
            if not any(span[0] == command for span in tracer.spans):
                start = time.perf_counter()
                replayed.append((command, replay.replay(command, tracer, inp)))
                overhead += time.perf_counter() - start - untraced
        layer["trace.overhead_s"].append(overhead)
        tracers.append(tracer)
        for name, value in layer_metrics(tracer).items():
            layer[name].append(value)
        layer["datamodel.json_decode_s"].append(decode_inputs(work / "corpus")[0])
        layer["geometry.intersection_ns"].append(median([ns_per_call(intersection_area, pairs_pp) for _ in range(3)]))
        layer["geometry.iou_ns"].append(median([ns_per_call(iou, pairs_iou) for _ in range(3)]))
        run.invocations["import"] += 1
        code, wall, _, _ = run.spawn(["-c", "import partmon.cli"])
        if code == 0:
            layer["cli.import_s"].append(wall)
        else:
            run.failures["import"] += 1

    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        if args.trace:
            replay_round(rounds)
        else:
            for command in LOOP:
                run.invoke(command)
            frame_pass()
        run.ref_before = None
        rounds += 1
    gc.unfreeze()

    phases["rounds"] = time.perf_counter()
    # Correctness gate, outside every timed region.
    cli = cli_results(run)
    bad = {c for c in OUTPUTS if cli.get(c) is None}
    problems = {"validate": gate.check_validate(run.stdout.get("validate", ""), decoded)}
    if cli["calibrate"] is not None:
        problems["calibrate"] = gate.check_alphas(cli["calibrate"], cal_scenes, inp.matching, replay.GRID_STEP)
        if cli["evaluate_image"] is not None and cli["evaluate_object"] is not None:
            problems.update(gate.check_evaluate(cli["evaluate_image"], cli["evaluate_object"], cal_scenes,
                                                cli["calibrate"], inp.matching))
        for mode in ("image", "object"):
            if cli[f"monitor_{mode}"] is not None:
                problems[f"monitor_{mode}"] = gate.check_monitor(cli[f"monitor_{mode}_text"], live,
                                                                 cli["calibrate"], mode)
    for command, found in problems.items():
        if found:
            bad.add(command)
            run.problems.extend(found[:5])
    replay_failures = sum(result != cli.get(command) for command, result in replayed)
    if replay_failures:
        run.problems.append(f"{replay_failures} replays differ from the CLI outputs")
    run.problems.extend(f"frames: {n} x {msg}" for msg, n in frame_failures.items())

    attempted = sum(run.invocations.values()) + len(replayed) + (len(frames_ns) + sum(frame_failures.values()))
    failed = run.failed(bad) + replay_failures + sum(frame_failures.values())

    phases["gate"] = time.perf_counter()
    grid = alpha_grid(replay.GRID_STEP)
    flags = [f"{name}={value} is on the alpha grid boundary"
             for name, value in (("alpha_fp", op.alpha_fp), ("alpha_fn", op.alpha_fn))
             if value in (grid[0], grid[-1])]

    counts, raw = {}, {}
    if args.trace:
        metrics = {name: median(values) for name, values in layer.items()}
        counts = {name: len(values) for name, values in layer.items()}
        metrics["calibration.alpha_grid_points"] = len(grid)
        metrics["calibration.alpha_useful_ratio"] = alpha_useful_ratio(cal_scenes, grid, per_image_rule)
        metrics["calibration.alpha_fp"] = op.alpha_fp
        metrics["calibration.alpha_fn"] = op.alpha_fn
        for command in replay.COMMANDS:
            metrics[f"cli.{command}.residual_s"] = median(residual[command])
            counts[f"cli.{command}.residual_s"] = len(residual[command])
        metrics["cli.monitor_object.output_bytes"] = (work / OUTPUTS["monitor_object"]).stat().st_size
        metrics["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = {f"{c}_s": median(run.scaled[c]) for c in LOOP}
        metrics["setup_s"] = median(run.scaled["validate"])
        raw = {f"{c}_s": median(run.samples[c]) for c in LOOP} | {"setup_s": median(run.samples["validate"])}
        counts = {f"{c}_s": len(run.samples[c]) for c in LOOP} | {"setup_s": len(run.samples["validate"])}
        if len(frames_ns) >= 2:
            # Per round, then the median over rounds: one slow round moves neither.
            metrics["frame_p50_us"] = median([statistics.median(f) for f in frames_scaled]) / 1e3
            metrics["frame_p99_us"] = median([statistics.quantiles(f, n=100)[98] for f in frames_scaled]) / 1e3
            raw["frame_p50_us"] = statistics.median(frames_ns) / 1e3
            raw["frame_p99_us"] = statistics.quantiles(frames_ns, n=100)[98] / 1e3
        counts["frame_p50_us"] = counts["frame_p99_us"] = len(frames_ns)
        metrics["peak_rss_mb"] = run.rss_kb / 1024
        counts["peak_rss_mb"] = sum(run.invocations.values())
        units = END_TO_END

    metrics = {name: metrics.get(name, float("nan")) for name in units}
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} scenes={scenes_n} rounds={rounds} trace={args.trace}")
    print(f"calibration: alpha_fp={op.alpha_fp} alpha_fn={op.alpha_fn}")
    for flag in flags:
        print(f"flag: {flag}")
    for name, value in metrics.items():
        unscaled = f" raw={raw[name]:.6g}" if name in raw else ""
        print(f"  {name:34s} {value:>16.6g} {units[name]:6s} n={counts.get(name, 1)}{unscaled}")
    print(f"operations: attempted={attempted} failed={failed} error_rate={failed / attempted:.6g}")
    if tracers:
        for command in replay.COMMANDS:
            by_layer = Counter()
            for name, seconds in tracers[-1].durations(command).items():
                by_layer[name.split(".")[0]] += seconds
            shares = ", ".join(f"{name}={value:.3f}s" for name, value in by_layer.most_common())
            print(f"layers of {command}: {shares}, cli={metrics[f'cli.{command}.residual_s']:.3f}s")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")

    marks = list(phases.items())
    record = {"phases_s": {name: round(t - marks[i][1], 3) for i, (name, t) in enumerate(marks[1:])},
              "env": env, "workload": args.workload, "seed": args.seed, "scenes": scenes_n, "rounds": rounds,
              "trace": args.trace, "alpha_fp": op.alpha_fp, "alpha_fn": op.alpha_fn, "flags": flags,
              "metrics": {n: {"value": v, "unit": units[n], "samples": counts.get(n, 1), "raw": raw.get(n)}
                          for n, v in metrics.items()},
              "samples": dict(run.scaled), "events": run.events,
              "attempted": attempted, "failed": failed,
              "problems": run.problems[:100],
              "spans": [s for t in tracers for s in t.dump()]}
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of one traced replay of the six commands."""
    d = {c: tracer.durations(c) for c in ("validate", "calibrate", "evaluate_image", "evaluate_object",
                                          "monitor_image", "monitor_object")}
    n = tracer.counts
    load_s = d["validate"]["datamodel.load_gt"] + d["validate"]["datamodel.load_dets"]
    per_object_s = d["monitor_object"]["monitor.per_object"]
    return {
        "datamodel.load_gt_s": d["validate"]["datamodel.load_gt"],
        "datamodel.load_dets_s": d["validate"]["datamodel.load_dets"],
        "datamodel.records_per_s": n["datamodel.records"] / load_s,
        "datamodel.filter_s": d["calibrate"]["datamodel.filter"],
        "datamodel.group_s": d["calibrate"]["datamodel.group"],
        "datamodel.dets_kept_ratio": n["datamodel.dets_kept"] / n["datamodel.dets_loaded"],
        "calibration.conf_sweep_s": d["calibrate"]["calibration.conf_sweep"],
        "calibration.conf_candidates": n["calibration.conf_candidates"],
        "calibration.apply_conf_s": d["calibrate"]["calibration.apply_conf"],
        "calibration.conf_kept_ratio": n["calibration.dets_kept"] / n["datamodel.dets_kept"],
        "calibration.alpha_sweep_s": d["calibrate"]["calibration.alpha_sweep"],
        "partition.total_s": n["partition.total_ns"] / 1e9,
        "partition.calls": n["partition.calls"],
        "partition.iou_pairs": n["partition.iou_pairs"],
        "partition.ns_per_pair": n["partition.total_ns"] / max(n["partition.iou_pairs"], 1),
        "monitor.per_image_s": d["monitor_image"]["monitor.per_image"],
        "monitor.per_object_s": per_object_s,
        "monitor.overlap_pairs": n["monitor.overlap_pairs"],
        "monitor.ns_per_pair": per_object_s * 1e9 / max(n["monitor.overlap_pairs"], 1),
        "monitor.alert_fp_scenes": n["monitor.alert_fp_scenes"],
        "monitor.alert_fn_scenes": n["monitor.alert_fn_scenes"],
        "evaluation.per_image_counts_s": d["evaluate_image"]["evaluation.per_image_counts"],
        "evaluation.object_confusion_s": d["evaluate_object"]["evaluation.object_confusion"],
        "evaluation.render_s": d["evaluate_image"]["evaluation.render"] + d["evaluate_object"]["evaluation.render"],
    }


def alpha_useful_ratio(scenes, grid, per_image_rule) -> float:
    """Share of the sweep's per-scene rule evaluations whose alerts differ from the previous grid point."""
    import gate
    useful = sum(len({flip for _, flip in gate.alert_flips(per_image_rule, s, grid) if flip < len(grid)})
                 for s in scenes)
    return useful / (len(scenes) * len(grid))


if __name__ == "__main__":
    sys.exit(main())
