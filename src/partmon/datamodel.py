"""Class taxonomy, detection/annotation records, and COCO-style JSON ingestion.

The taxonomy is one person class plus eight body-part classes (left/right
variants in source data are merged onto the same part class through the
category map). Ground truth arrives as a COCO annotation file, detections as
a COCO results array; both are mapped onto the taxonomy via an explicit
category-map JSON so DensePose/COCO/VOC id spaces all work unchanged.

The package only reads COCO; it writes none. The loaders check each field once,
then fill a draft of the record and set its ``__class__`` (``geometry._draft``):
the public constructors' re-checks are skipped, and ``synth`` reads its payloads
back the same way. Both paths refuse the same boxes and scores with the same
messages: ``_parse_bbox`` and ``_parse_score`` are the rules.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from .errors import ParseError, TaxonomyError, ValidationError
from .geometry import Box, _draft, _record, area


class DetectionClass(Enum):
    """The nine detection classes: the person itself and its eight parts."""

    PERSON = "Person"
    TORSO = "Torso"
    HAND = "Hand"
    FOOT = "Foot"
    UPPER_LEG = "UpperLeg"
    LOWER_LEG = "LowerLeg"
    UPPER_ARM = "UpperArm"
    LOWER_ARM = "LowerArm"
    HEAD = "Head"

    __hash__ = object.__hash__  # members are singletons and compare by identity; Enum's hash is Python-level

_CLASS_BY_NAME = {c.value: c for c in DetectionClass}


@_record
class Detection:
    """A scored, class-labeled box tied to an image.

    ``det_id`` is a stable per-stream index assigned at ingestion; reports use
    it to name detections without aliasing duplicates.
    """

    image_id: int
    category: DetectionClass
    box: Box
    score: float
    det_id: int | None = None

    def __post_init__(self):  # the record keeps what the rules return: a Box of floats and a float score
        _set(self, "box", _parse_bbox([self.box.x, self.box.y, self.box.w, self.box.h], "detection #", self.det_id))
        _set(self, "score", _parse_score(self.score, "detection #", self.det_id))


@_record
class GtAnnotation:
    """A ground-truth box for one image."""

    image_id: int
    category: DetectionClass
    box: Box
    ann_id: int | None = None

    def __post_init__(self):
        _set(self, "box", _parse_bbox([self.box.x, self.box.y, self.box.w, self.box.h], "annotation id ", self.ann_id))


@dataclass(frozen=True)
class GroundTruth:
    """A dataset's annotations plus its image ids, in file order. Loaded with ``classes``, ``annotations`` holds
    only those classes' annotations and every annotation on an image that ``images`` does not list."""

    annotations: tuple[GtAnnotation, ...]
    images: tuple[int, ...]


@_record
class Scene:
    """Everything the toolkit knows about one image.

    ``persons`` holds only person-class detections and ``parts`` only
    part-class detections; cross-class entries in either input stream are
    filtered out here, which lets a jointly trained detector's single results
    file be passed as both streams.
    """

    image_id: int
    persons: tuple[Detection, ...] = ()
    parts: tuple[Detection, ...] = ()
    gt: tuple[GtAnnotation, ...] = ()

    def gt_persons(self) -> tuple[GtAnnotation, ...]:
        return tuple([a for a in self.gt if a.category is DetectionClass.PERSON])


class FilterMode(Enum):
    """How the minimum-person-area rule treats an image.

    DROP_IF_ANY_BELOW drops images containing any person smaller than the
    cutoff and keeps person-free images. REQUIRE_ALL_ABOVE additionally
    requires at least one person to be present.
    """

    DROP_IF_ANY_BELOW = "drop_if_any_below"
    REQUIRE_ALL_ABOVE = "require_all_above"


def read_json(path, unique_keys: bool = False) -> object:
    """Parse a UTF-8 JSON file; every way the bytes can fail to parse is a ParseError. With ``unique_keys``, so is
    a key repeated in one object, which ``json`` would read as its last value. The large files (ground truth and
    results) keep that rule: the check would cost 12-52% of their decode."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8")  # no newline translation: offsets stay true
        return json.loads(text, object_pairs_hook=_unique if unique_keys else None)
    except json.JSONDecodeError as exc:  # exc.pos counts characters, not bytes
        raise ParseError(path, exc.msg, offset=len(text[:exc.pos].encode("utf-8"))) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8: {exc.reason}", offset=exc.start) from exc
    except RecursionError as exc:
        raise ParseError(path, "nested too deeply") from exc
    except ValueError as exc:  # e.g. an integer literal beyond the int-to-str digit limit, or a repeated key
        raise ParseError(path, str(exc)) from exc


def _unique(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def json_text(payload) -> str:
    """The one output JSON format: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_text(path, chunks: Iterable[str]) -> None:
    """The one output writer: ``chunks`` to ``path`` in order, as UTF-8 with no newline translation."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_category_map(path) -> dict[int, DetectionClass]:
    """Load a JSON object mapping source category id -> taxonomy class name.

    Several source ids may map onto the same class (e.g. left/right limbs).
    """
    raw = read_json(path, unique_keys=True)
    if not isinstance(raw, dict):
        raise ValidationError(f"category map must be a JSON object: {path}")
    mapping: dict[int, DetectionClass] = {}
    for key, name in raw.items():
        try:
            cat_id = _integer(key)
        except (TypeError, ValueError):
            raise ValidationError(f"category map key is not an integer id: {key!r}") from None
        if cat_id in mapping:  # "01" and "1" name one id: the second would silently replace the first
            raise ValidationError(f"category map key {key!r} repeats id {cat_id}")
        cls = _CLASS_BY_NAME.get(name) if isinstance(name, str) else None
        if cls is None:
            raise TaxonomyError(f"category map value {name!r} for id {cat_id} is not one of {sorted(_CLASS_BY_NAME)}")
        mapping[cat_id] = cls
    return mapping


def _plain(raw):
    """``raw``, unless int() or float() would read it leniently: a boolean, or a string that is padded
    or holds "_" or a non-ASCII character."""
    if raw.__class__ is bool or (raw.__class__ is str and ("_" in raw or not raw.isascii() or raw.strip() != raw)):
        raise ValueError(raw)
    return raw


def _integer(raw) -> int:
    """int(raw) for an id; a number with a fractional part is refused, not truncated."""
    if raw.__class__ is float and not raw.is_integer():
        raise ValueError(raw)
    return raw if raw.__class__ is int else int(_plain(raw))


def _number(raw, refusal: str, *args) -> float:
    """float(raw) for a JSON real number. Anything else is refused: ``refusal.format(*args, raw)``, built only then."""
    try:
        return float(raw) if raw.__class__ is int else float(_plain(raw))
    except OverflowError:  # an integer too large for a float reads as infinite, as 1e999 does
        return math.inf if raw > 0 else -math.inf
    except (TypeError, ValueError):
        raise ValidationError(refusal.format(*args, raw)) from None


def _map_category(category_id, category_map: Mapping[int, DetectionClass], what: str, key) -> DetectionClass:
    try:
        return category_map[_integer(category_id)]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise TaxonomyError(f"{what}{key}: unmapped category id: {category_id!r}") from None


_BoxDraft, _DetectionDraft, _GtAnnotationDraft = _draft(Box), _draft(Detection), _draft(GtAnnotation)
_set = object.__setattr__  # for the public constructors' checks: sets a field past the frozen __setattr__


# The largest accepted box area: the union of two boxes in an IoU then stays finite.
_MAX_AREA = sys.float_info.max / 2


def _parse_bbox(raw, what: str, key) -> Box:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ValidationError(f"{what}{key}: bbox must be [x, y, w, h], got {raw!r}")
    x, y, w, h = raw  # four JSON floats are used as they are
    if not (x.__class__ is float and y.__class__ is float and w.__class__ is float and h.__class__ is float):
        x, y, w, h = [_number(v, "{}{}: bbox values must be numbers, got {!r}", what, key) for v in raw]
    # x + w and y + h are finite iff all four values are and no far edge overflows.
    if not (math.isfinite(x + w) and math.isfinite(y + h)):
        raise ValidationError(f"{what}{key}: bbox values and far edges must be finite, got {raw!r}")
    if not (w > 0 and h > 0):
        raise ValidationError(f"{what}{key}: bbox width and height must be positive, got {raw!r}")
    box_area = w * h
    if box_area == 0.0:
        raise ValidationError(f"{what}{key}: bbox area underflows to 0, got {raw!r}")
    if box_area > _MAX_AREA:
        raise ValidationError(f"{what}{key}: bbox area overflows, got {raw!r}")
    box = _BoxDraft()
    box.x, box.y, box.w, box.h = x, y, w, h
    box.__class__ = Box
    return box


def _parse_score(raw, what: str, key) -> float:
    score = raw if raw.__class__ is float else _number(raw, "{}{}: score must be a number, got {!r}", what, key)
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"{what}{key}: score {score} outside [0, 1]")
    return score


def _parse_image_id(raw, what: str, key, name="image_id") -> int:
    try:
        return _integer(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what}{key}: {name} must be an integer, got {raw!r}") from None


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore its state: records form no cycles. The loaders run under it
    from decode to the last record, as most of the collections a load would trigger come during ``json.loads``."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _objects(entries: list, what: str):
    """Yield (index, entry), rejecting non-objects; each leaves ``entries``, so it is freed once the caller moves on."""
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{what} #{index}: expected a JSON object, got {entry!r}")
        entries[index] = None
        yield index, entry


@_collector_paused()
def load_ground_truth(path, category_map: Mapping[int, DetectionClass],
                      classes: Collection[DetectionClass] | None = None) -> GroundTruth:
    """Load a COCO-style annotation file.

    Expects objects ``images`` (each with an ``id``) and ``annotations`` (each
    with ``id``, ``image_id``, ``category_id``, ``bbox``). Category ids are
    mapped through ``category_map``; unknown ids raise TaxonomyError.

    Every entry is checked. With ``classes``, an annotation of another class is
    kept only if its image is unlisted, so ``unknown_image_warnings`` still
    names it; the default keeps every annotation.
    """
    raw = read_json(path)
    if not (isinstance(raw, dict) and isinstance(raw.get("images"), list)
            and isinstance(raw.get("annotations"), list)):
        raise ValidationError(f"ground truth must contain 'images' and 'annotations' arrays: {path}")
    return _ground_truth(raw["images"], raw["annotations"], category_map, classes)


def _ground_truth(images_raw: list, annotations_raw: list, category_map: Mapping[int, DetectionClass],
                  classes: Collection[DetectionClass] | None = None) -> GroundTruth:
    """The records of a decoded annotation file's two arrays; each entry of both lists is set to None."""
    images = {}  # an image entry's other fields (width, height, file_name) are not read
    for index, img in _objects(images_raw, "image entry"):
        image_id = _parse_image_id(img.get("id"), "image entry #", index, "id")
        if image_id in images:
            raise ValidationError(f"image entry #{index}: duplicate id {image_id}")
        images[image_id] = None

    annotations = []
    for _, entry in _objects(annotations_raw, "annotation"):
        ann_id = entry.get("id")
        cls = _map_category(entry.get("category_id"), category_map, "annotation id ", ann_id)
        box = _parse_bbox(entry.get("bbox"), "annotation id ", ann_id)
        image_id = _parse_image_id(entry.get("image_id"), "annotation id ", ann_id)
        if classes is not None and cls not in classes and image_id in images:
            continue
        ann = _GtAnnotationDraft()
        ann.image_id, ann.category, ann.box, ann.ann_id = image_id, cls, box, ann_id
        ann.__class__ = GtAnnotation
        annotations.append(ann)
    return GroundTruth(annotations=tuple(annotations), images=tuple(images))


@_collector_paused()
def load_detections(path, category_map: Mapping[int, DetectionClass]) -> tuple[Detection, ...]:
    """Load a COCO-style results array of {image_id, category_id, bbox, score}.

    Detections get sequential ``det_id`` values in file order, so reloading a
    file reproduces identical records.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ValidationError(f"detection results must be a JSON array: {path}")
    return _detections(raw, category_map)


def _detections(entries: list, category_map: Mapping[int, DetectionClass]) -> tuple[Detection, ...]:
    """The records of a decoded results array; each entry of ``entries`` is set to None."""
    detections = []
    for index, entry in _objects(entries, "detection"):
        cls = _map_category(entry.get("category_id"), category_map, "detection #", index)
        box = _parse_bbox(entry.get("bbox"), "detection #", index)
        try:
            score = _parse_score(entry["score"], "detection #", index)
        except KeyError:
            raise ValidationError(f"detection #{index}: score is missing") from None
        image_id = _parse_image_id(entry.get("image_id"), "detection #", index)
        det = _DetectionDraft()
        det.image_id, det.category, det.box, det.score, det.det_id = image_id, cls, box, score, index
        det.__class__ = Detection
        detections.append(det)
    return tuple(detections)


def filter_images_by_min_person_area(
    gt: GroundTruth,
    min_area: float = 2247.0,
    mode: FilterMode = FilterMode.DROP_IF_ANY_BELOW,
) -> set[int]:
    """Return the image ids that survive the minimum-person-area rule.

    An image fails whenever any of its person annotations has box area
    strictly below ``min_area``. Under REQUIRE_ALL_ABOVE, images without any
    person annotation fail too.
    """
    if not min_area >= 0:  # refuses NaN too
        raise ValidationError(f"min_area must be non-negative, got {min_area}")
    persons = [ann for ann in gt.annotations if ann.category is DetectionClass.PERSON]
    retained = set(gt.images) - {ann.image_id for ann in persons if area(ann.box) < min_area}
    if mode is FilterMode.REQUIRE_ALL_ABOVE:
        retained &= {ann.image_id for ann in persons}
    return retained


@dataclass(frozen=True)
class GroupingResult:
    scenes: tuple[Scene, ...]
    warnings: tuple[str, ...] = field(default=())


def group_into_scenes(
    gt: GroundTruth | None,
    person_dets: Sequence[Detection],
    part_dets: Sequence[Detection],
    image_ids: set[int] | None = None,
) -> GroupingResult:
    """Group annotations and detections into one Scene per ground-truth image.

    ``image_ids`` restricts the scene universe (e.g. after min-area
    filtering); an image unknown to the ground truth gets no scene, even
    when ``image_ids`` names it, and its detections and annotations produce
    the ``unknown_image_warnings``. Entries on known but unselected images
    are excluded silently.

    With ``gt=None`` (runtime monitoring) every image id is known, scenes
    carry no annotations, and the default universe is the images holding at
    least one kept detection: a person-class entry of the person stream or a
    part-class entry of the part stream.
    """
    known = None if gt is None else set(gt.images)
    # Per image, its (persons, parts, annotations); a bucket is made only for a new image.
    buckets: dict[int, tuple[list[Detection], list[Detection], list[GtAnnotation]]] = defaultdict(lambda: ([], [], []))
    for slot, stream, wants_person in ((0, person_dets, True), (1, part_dets, False)):
        for det in stream:
            if (det.category is DetectionClass.PERSON) is wants_person:
                buckets[det.image_id][slot].append(det)
    for ann in gt.annotations if gt is not None else ():
        buckets[ann.image_id][2].append(ann)
    warnings = () if gt is None else unknown_image_warnings(gt, person_dets, part_dets, gt.annotations)
    universe = image_ids if image_ids is not None else known if known is not None else buckets.keys()
    if known is not None:  # an image the ground truth does not list gets no scene, even one that ``image_ids`` names
        universe = known.intersection(universe)
    empty = ((), (), ())
    scenes = tuple(Scene(img_id, *map(tuple, buckets.get(img_id, empty))) for img_id in sorted(universe))
    return GroupingResult(scenes=scenes, warnings=tuple(warnings))


def unknown_image_warnings(gt: GroundTruth, persons: Sequence[Detection] = (), parts: Sequence[Detection] = (),
                           annotations: Sequence[GtAnnotation] = ()) -> list[str]:
    """One warning per entry on an image that ``gt`` does not list: person detections, part detections, then
    annotations. Set lookups only: no scene is built."""
    known = set(gt.images)
    return [f"{kind} detection det_id={det.det_id} references unknown image id {det.image_id}"
            for kind, stream in (("person", persons), ("part", parts)) for det in stream
            if det.image_id not in known] + [f"annotation id={ann.ann_id} references unknown image id {ann.image_id}"
                                             for ann in annotations if ann.image_id not in known]


def group_detections_only(
    person_dets: Sequence[Detection],
    part_dets: Sequence[Detection],
) -> tuple[Scene, ...]:
    """Group detections without ground truth (runtime monitoring input)."""
    return group_into_scenes(None, person_dets, part_dets).scenes
