"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` for each workload in ``BENCHMARK.json``, once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1`` (per-layer
metrics), one after another, and prints one line per metric with its unit,
followed by the calibrated alphas and each command's time per layer.
Exits 1 when a run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                print(f"{workload:8s} {name:34s} {metric['value']:>16.6g} {metric['unit']}")
            print(f"{workload:8s} operations: attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith(("calibration:", "flag:", "layers of", "problem:")):
                    print(f"{workload:8s} {line}")
            if not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
