"""Seeded synthetic corpora with known error labels.

Each scene places non-overlapping ground-truth persons on a horizontal
strip, derives part boxes at fixed anatomical fractions inside each person
(head at the top, torso in the middle, limbs flanking and below), then
simulates a detector: drops erase detections (missed persons/parts), ghosts
add detections below every person, and jitter perturbs the surviving boxes.
One rule draws every person, ghost person and ghost part box: a size from its
kind's ranges, then offsets inside the person's 220-px column and its kind's
strip; the image widens to hold it. Persons never overlap each other and ghosts
never overlap persons, so the generator knows the exact TP/FP/FN labels of its
own output whenever jitter is zero. Ghost persons (y 500-790) and ghost parts
(y 780-860) share a 10-px band, so a ghost part can overlap its column's ghost
person; the band stays, since moving a strip changes every corpus's bytes.

The random source is Python's Mersenne Twister (random.Random), so a seed
reproduces the same corpus on any platform.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from .datamodel import (
    Detection,
    DetectionClass,
    GroundTruth,
    Scene,
    _detections,
    _ground_truth,
    group_into_scenes,
    json_text,
    write_text,
)
from .errors import ValidationError

# Canonical category ids for serialized corpora: 1-9 in the taxonomy's declaration order.
_CLASS_BY_ID = dict(enumerate(DetectionClass, 1))
CATEGORY_IDS = {cls: cat_id for cat_id, cls in _CLASS_BY_ID.items()}
CATEGORY_MAP = {str(cat_id): cls.value for cls, cat_id in CATEGORY_IDS.items()}

# The files of a corpus directory, each named after its role: write_corpus and the synth command write them,
# and synth refuses a --config that is one of them.
CORPUS_FILES = {role: f"{role}.json" for role in ("gt", "persons", "parts", "category_map", "labels")}

# (x, y, w, h) as fractions of the person box; every slot stays inside it.
_PART_LAYOUT = [
    (DetectionClass.HEAD, (0.30, 0.00, 0.40, 0.20)),
    (DetectionClass.TORSO, (0.25, 0.30, 0.50, 0.40)),
    (DetectionClass.UPPER_ARM, (0.00, 0.20, 0.15, 0.25)),
    (DetectionClass.LOWER_ARM, (0.85, 0.20, 0.15, 0.25)),
    (DetectionClass.HAND, (0.00, 0.50, 0.15, 0.12)),
    (DetectionClass.UPPER_LEG, (0.20, 0.72, 0.25, 0.14)),
    (DetectionClass.LOWER_LEG, (0.55, 0.72, 0.25, 0.14)),
    (DetectionClass.FOOT, (0.30, 0.88, 0.30, 0.12)),
]

_PERSON_CELL = 220
_GHOST_Y = 500
_CANVAS_H = 880


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_scenes: int = 20
    persons_per_scene: tuple[int, int] = (1, 4)
    parts_per_person: tuple[int, int] = (1, 6)
    drop_person_prob: float = 0.15
    drop_part_prob: float = 0.1
    ghost_person_prob: float = 0.1
    ghost_part_prob: float = 0.1
    jitter: float = 0.0

    def __post_init__(self):
        for name in ("drop_person_prob", "drop_part_prob", "ghost_person_prob", "ghost_part_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        for name in ("persons_per_scene", "parts_per_person"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValidationError(f"{name} must be a non-empty non-negative range, got ({lo}, {hi})")
        if self.n_scenes < 0:
            raise ValidationError(f"n_scenes must be non-negative, got {self.n_scenes}")
        if not 0 <= self.jitter < math.inf:  # as --jitter: a NaN or infinite jitter makes boxes the loaders refuse
            raise ValidationError(f"jitter must be finite and non-negative, got {self.jitter}")


@dataclass(frozen=True)
class SceneLabels:
    """The generator's own record of which detections simulate which errors."""

    image_id: int
    tp_person_det_ids: tuple[int, ...]
    fp_person_det_ids: tuple[int, ...]
    fn_person_ann_ids: tuple[int, ...]
    ghost_part_det_ids: tuple[int, ...]


@dataclass(frozen=True)
class Corpus:
    """Labels, ``files`` (the decoded JSON of each file of ``CORPUS_FILES``, by role) and the records read from them."""

    gt: GroundTruth
    person_dets: tuple[Detection, ...]
    part_dets: tuple[Detection, ...]
    labels: tuple[SceneLabels, ...]
    files: dict[str, object]

    def scenes(self) -> tuple[Scene, ...]:
        return group_into_scenes(self.gt, self.person_dets, self.part_dets).scenes


def _part_box(person: list[float], fractions: tuple[float, float, float, float]) -> list[float]:
    (px, py, pw, ph), (fx, fy, fw, fh) = person, fractions
    x1, y1 = px + math.floor(fx * pw), py + math.floor(fy * ph)
    x2, y2 = px + math.floor((fx + fw) * pw), py + math.floor((fy + fh) * ph)
    return [x1, y1, max(x2 - x1, 1.0), max(y2 - y1, 1.0)]


def _jittered(box: list[float], jitter: float, rng: random.Random) -> list[float]:
    if jitter == 0:
        return box
    x, y, w, h = box
    dx, dy = rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter)
    dw, dh = rng.uniform(-jitter / 2, jitter / 2), rng.uniform(-jitter / 2, jitter / 2)
    return [x + dx, y + dy, max(w + dw, 1.0), max(h + dh, 1.0)]


def generate(config: SynthConfig) -> Corpus:
    """Build a corpus deterministically from the seed: the files' payloads, boxes of floats, then the records."""
    rng = random.Random(config.seed)
    images, annotations, labels = [], [], []
    person_dets, part_dets = [], []

    def annotate(cls: DetectionClass, bbox: list[float]) -> int:
        """Append an annotation on the current image; return its id, counted from 1."""
        annotations.append({"id": len(annotations) + 1, "image_id": image_id, "category_id": CATEGORY_IDS[cls],
                            "bbox": bbox})
        return len(annotations)

    def detect(dets: list, cls: DetectionClass, bbox: list[float], low: float, high: float) -> int:
        """Append a detection on the current image, scored after its box is drawn; return its det_id."""
        dets.append({"image_id": image_id, "category_id": CATEGORY_IDS[cls], "bbox": bbox,
                     "score": round(rng.uniform(low, high), 4)})
        return len(dets) - 1

    def draw(col: int, w_range: tuple, h_range: tuple, x_span: int, y0: int, y_span: int) -> list[float]:
        """Draw a box in column ``col``: width, height, then x and y offsets; widen the image to hold it."""
        nonlocal max_extent
        w, h = float(rng.randint(*w_range)), float(rng.randint(*h_range))
        x, y = float(col * _PERSON_CELL + rng.randint(0, x_span)), float(y0 + rng.randint(0, y_span))
        max_extent = max(max_extent, x + w)
        return [x, y, w, h]

    for scene_idx in range(config.n_scenes):
        image_id = scene_idx + 1
        n_persons = rng.randint(*config.persons_per_scene)
        tp_ids, fp_ids, fn_ids, ghost_part_ids = [], [], [], []
        max_extent = 400.0

        for col in range(n_persons):
            person_box = draw(col, (80, 160), (160, 320), 40, 0, 40)
            person_ann_id = annotate(DetectionClass.PERSON, person_box)

            n_parts = min(rng.randint(*config.parts_per_person), len(_PART_LAYOUT))
            slots = rng.sample(range(len(_PART_LAYOUT)), n_parts)
            part_boxes = []
            for slot in sorted(slots):
                cls, fractions = _PART_LAYOUT[slot]
                pbox = _part_box(person_box, fractions)
                annotate(cls, pbox)
                part_boxes.append((cls, pbox))

            if rng.random() < config.drop_person_prob:
                fn_ids.append(person_ann_id)
            else:
                box = _jittered(person_box, config.jitter, rng)
                tp_ids.append(detect(person_dets, DetectionClass.PERSON, box, 0.5, 0.99))

            for cls, pbox in part_boxes:
                if rng.random() < config.drop_part_prob:
                    continue
                detect(part_dets, cls, _jittered(pbox, config.jitter, rng), 0.5, 0.99)

            # Ghosts live below every person box. A ghost part can overlap its column's ghost person in their 10-px
            # shared band (19 of 5,056 did at both ghost probabilities 1.0, seed 1); the band stays: see the docstring.
            if rng.random() < config.ghost_person_prob:
                box = draw(col, (70, 150), (120, 260), 40, _GHOST_Y, 30)
                fp_ids.append(detect(person_dets, DetectionClass.PERSON, box, 0.05, 0.7))

            if rng.random() < config.ghost_part_prob:
                cls = _PART_LAYOUT[rng.randrange(len(_PART_LAYOUT))][0]
                box = draw(col, (20, 60), (20, 60), 120, _GHOST_Y + 280, 20)
                ghost_part_ids.append(detect(part_dets, cls, box, 0.05, 0.7))

        images.append({"id": image_id, "width": int(max_extent) + 40, "height": _CANVAS_H + 40,
                       "file_name": f"synth_{image_id:06d}.jpg"})
        labels.append(SceneLabels(image_id, tuple(tp_ids), tuple(fp_ids), tuple(fn_ids), tuple(ghost_part_ids)))

    categories = [{"id": cat_id, "name": cls.value} for cat_id, cls in _CLASS_BY_ID.items()]
    files = {"gt": {"images": images, "annotations": annotations, "categories": categories},
             "persons": person_dets, "parts": part_dets, "category_map": CATEGORY_MAP,
             "labels": [asdict(label) for label in labels]}  # tuples write as JSON arrays

    def read(role: str) -> tuple[Detection, ...]:
        """The loaders' records of a detection payload; they read a copy, as they set each entry they read to None."""
        try:
            return _detections(list(files[role]), _CLASS_BY_ID)
        except ValidationError as exc:  # only a jitter too large for float arithmetic makes boxes they refuse
            raise ValidationError(f"jitter {config.jitter}: {CORPUS_FILES[role]}: {exc}") from None

    gt = _ground_truth(list(images), list(annotations), _CLASS_BY_ID)
    return Corpus(gt=gt, person_dets=read("persons"), part_dets=read("parts"), labels=tuple(labels), files=files)


def _make_dir(out_dir) -> Path:
    """Create the corpus directory ``out_dir`` and its parents; return it as a Path."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # the message of every other failed write
        raise ValidationError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc
    return out_dir


def write_corpus(corpus: Corpus, out_dir) -> dict[str, Path]:
    """Write a corpus's payloads to the COCO-style files the loaders ingest, named by ``CORPUS_FILES``."""
    out_dir = _make_dir(out_dir)
    paths = {role: out_dir / name for role, name in CORPUS_FILES.items()}
    for role, path in paths.items():
        write_text(path, [json_text(corpus.files[role])])
    return paths
