"""The fixed task that end-to-end times are scaled by.

The machine's speed changes by up to 2x within seconds, so ``run.py`` runs
this task right before and right after every timed command (as a
subprocess: ``python perfbench/reference.py``) and every chunk of frames
(in-process: ``task(1)``), and scales the measured time by how long the task
took. The task mixes what partmon spends its time on: JSON decoding,
building frozen dataclass records and box-overlap arithmetic. The more
alike the two are, the better the task tracks the machine's speed for
partmon. It shares no code with partmon, so only the machine moves it.
Every recorded value is relative to this task: changing it changes them all.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

_GROUP = 20
_REPEATS = 4


@dataclass(frozen=True)
class _Box:
    x: float
    y: float
    w: float
    h: float


def _inter(a: _Box, b: _Box) -> float:
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    return iw * ih if iw > 0 and ih > 0 else 0.0


def task(groups: int) -> int:
    """Decode ``groups`` x 20 box records, then test every pair within a group four times."""
    rng = random.Random(0)
    records = [{"image_id": g, "bbox": [rng.uniform(0, 800), rng.uniform(0, 400),
                                        rng.uniform(10, 120), rng.uniform(10, 300)], "score": rng.random()}
               for g in range(groups) for _ in range(_GROUP)]
    by_group: dict[int, list[_Box]] = {}
    for record in json.loads(json.dumps(records)):
        by_group.setdefault(record["image_id"], []).append(_Box(*record["bbox"]))
    hits = 0
    for _ in range(_REPEATS):
        for boxes in by_group.values():
            for a in boxes:
                for b in boxes:
                    hits += _inter(a, b) >= 0.5 * b.w * b.h
    return hits


if __name__ == "__main__":
    task(12)
