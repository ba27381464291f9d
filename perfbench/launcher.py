"""Runs programs for the benchmark from a small process, so their peak RSS is their own.

On Linux a child's ``ru_maxrss`` includes the peak RSS of the address space
it was started from, which is the parent's: started from the benchmark
process, which holds whole corpora in memory, every command would report the
benchmark's size. The runner starts this script once, before it loads
anything, and sends it one JSON request per line,
``{"argv", "cwd", "stdout", "stderr"}``. For each it runs the program to
completion and answers ``{"code", "wall", "maxrss_kb"}`` on one line, the wall
time measured from start to exit. A program still running after the timeout
given as the first argument is killed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
