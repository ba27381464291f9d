"""Seeded crowded-scene corpus for the ``crowd`` workload.

Each scene is a row of 8-20 person boxes that overlap their neighbours, in
the spirit of CrowdHuman (Shao et al. 2018): every person occludes part of
the next one. Scene i has 8 + (i - 1) mod 13 persons, so every seed has the
same mix of crowd sizes and per-frame latency quantiles do not jump between
seeds; the seed moves everything else. The simulated detector then adds the
three cases the default ``partmon synth`` corpus never produces:

* a missed person whose body parts are still detected and are partly covered
  by the neighbouring persons, so whether the monitor flags them depends on
  alpha_fn;
* a ghost person floating above the row whose bottom edge cuts into some
  heads, so the part support it gets depends on alpha_fp;
* a ghost part straddling the top edge of two neighbouring persons, covered
  partly by each, which a too-large alpha_fn flags as a missed person.

Ghost persons and parts get the same score distribution as real detections,
so the confidence thresholds cannot remove them and the alpha sweep has to
trade them off: the calibrated alphas land inside the grid, not on its
boundary. Rejection sampling keeps each ghost inside its intended coverage
band, which is what keeps the optimum interior for every seed.

The generator writes plain COCO-style JSON and shares no code with
``partmon``, so the same seed gives byte-identical inputs on every commit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CATEGORY_IDS = {
    "Person": 1, "Torso": 2, "Hand": 3, "Foot": 4, "UpperLeg": 5,
    "LowerLeg": 6, "UpperArm": 7, "LowerArm": 8, "Head": 9,
}

# (x, y, w, h) as fractions of the person box, as in the synth generator.
_PART_LAYOUT = [
    ("Head", (0.30, 0.00, 0.40, 0.20)),
    ("Torso", (0.25, 0.30, 0.50, 0.40)),
    ("UpperArm", (0.00, 0.20, 0.15, 0.25)),
    ("LowerArm", (0.85, 0.20, 0.15, 0.25)),
    ("Hand", (0.00, 0.50, 0.15, 0.12)),
    ("UpperLeg", (0.20, 0.72, 0.25, 0.14)),
    ("LowerLeg", (0.55, 0.72, 0.25, 0.14)),
    ("Foot", (0.30, 0.88, 0.30, 0.12)),
]

_ROW_TOP = 260.0
_DROP_PERSON = 0.12
_DROP_PART = 0.1
_GHOST_PERSON = 0.5
_GHOST_PART = 0.5
_TRIES = 60


def _inter(a, b) -> float:
    iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    return iw * ih if iw > 0 and ih > 0 else 0.0


def _iou(a, b) -> float:
    inter = _inter(a, b)
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def _coverage(person, part) -> float:
    return _inter(person, part) / (part[2] * part[3])


def _jitter(box, amount: float, rng: random.Random):
    x, y, w, h = box
    return (
        round(x + rng.uniform(-amount, amount), 2),
        round(y + rng.uniform(-amount, amount), 2),
        round(max(w + rng.uniform(-amount / 2, amount / 2), 1.0), 2),
        round(max(h + rng.uniform(-amount / 2, amount / 2), 1.0), 2),
    )


def _score(rng: random.Random) -> float:
    return round(rng.uniform(0.3, 1.0), 4)


def _ghost_person(rng, gt_persons, part_dets):
    """A person-sized box above the row whose bottom edge cuts into heads."""
    right = max(p[0] + p[2] for p in gt_persons)
    for _ in range(_TRIES):
        w = float(rng.randint(70, 120))
        h = float(rng.randint(140, 220))
        x = round(rng.uniform(0.0, right - w), 2)
        y = round(_ROW_TOP - h + rng.uniform(5.0, 70.0), 2)
        box = (x, y, w, h)
        if any(_iou(box, g) >= 0.3 for g in gt_persons):
            continue
        best = max((_coverage(box, p) for p in part_dets), default=0.0)
        if 0.05 <= best <= 0.7:
            return box
    return None


def _ghost_part(rng, person_dets):
    """A part box across the top edge of two neighbouring persons."""
    if len(person_dets) < 2:
        return None
    for _ in range(_TRIES):
        i = rng.randrange(len(person_dets) - 1)
        a, b = person_dets[i], person_dets[i + 1]
        w = float(rng.randint(20, 45))
        h = float(rng.randint(20, 45))
        x = round(rng.uniform(b[0] - w, a[0] + a[2]), 2)
        y = round(min(a[1], b[1]) - h + rng.uniform(0.3, 0.8) * h, 2)
        box = (x, y, w, h)
        covers = sorted((_coverage(p, box) for p in person_dets), reverse=True)
        if 0.25 <= covers[0] <= 0.8 and covers[1] > 0.05:
            return box
    return None


def generate(seed: int, n_scenes: int) -> dict:
    """Return the ``gt``, ``persons``, ``parts`` and ``category_map`` payloads."""
    rng = random.Random(seed)
    images, annotations, persons, parts = [], [], [], []
    ann_id = 1
    for image_id in range(1, n_scenes + 1):
        gt_persons, person_dets, part_dets = [], [], []
        x = 20.0
        for _ in range(8 + (image_id - 1) % 13):
            w = float(rng.randint(70, 120))
            h = float(rng.randint(180, 300))
            person = (x, _ROW_TOP + rng.randint(0, 60), w, h)
            x += round(w * rng.uniform(0.5, 0.8))
            gt_persons.append(person)
            annotations.append({"id": ann_id, "image_id": image_id,
                                "category_id": CATEGORY_IDS["Person"], "bbox": list(person)})
            ann_id += 1
            if rng.random() >= _DROP_PERSON:
                person_dets.append(_jitter(person, 3.0, rng))
            for slot in sorted(rng.sample(range(len(_PART_LAYOUT)), rng.randint(2, 6))):
                name, (fx, fy, fw, fh) = _PART_LAYOUT[slot]
                part = (person[0] + fx * w, person[1] + fy * h, fw * w, fh * h)
                annotations.append({"id": ann_id, "image_id": image_id,
                                    "category_id": CATEGORY_IDS[name], "bbox": list(part)})
                ann_id += 1
                if rng.random() >= _DROP_PART:
                    part_dets.append((name, _jitter(part, 2.0, rng)))

        ghost_parts = []
        if rng.random() < _GHOST_PART:
            box = _ghost_part(rng, person_dets)
            if box is not None:
                ghost_parts.append((_PART_LAYOUT[rng.randrange(len(_PART_LAYOUT))][0], box))
        if rng.random() < _GHOST_PERSON:
            box = _ghost_person(rng, gt_persons, [p for _, p in part_dets + ghost_parts])
            if box is not None:
                person_dets.append(box)

        for box in person_dets:
            persons.append({"image_id": image_id, "category_id": CATEGORY_IDS["Person"],
                            "bbox": list(box), "score": _score(rng)})
        for name, box in part_dets + ghost_parts:
            parts.append({"image_id": image_id, "category_id": CATEGORY_IDS[name],
                          "bbox": list(box), "score": _score(rng)})
        images.append({"id": image_id, "width": int(x) + 200, "height": 640,
                       "file_name": f"crowd_{image_id:06d}.jpg"})

    return {
        "gt": {"images": images, "annotations": annotations,
               "categories": [{"id": i, "name": n} for n, i in CATEGORY_IDS.items()]},
        "persons": persons,
        "parts": parts,
        "category_map": {str(i): n for n, i in CATEGORY_IDS.items()},
    }


def write(seed: int, n_scenes: int, out_dir) -> dict[str, Path]:
    """Generate a corpus and write it as ``<name>.json`` files under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, payload in generate(seed, n_scenes).items():
        paths[name] = out_dir / f"{name}.json"
        paths[name].write_text(json.dumps(payload), encoding="utf-8")
    return paths
