import copy
import gc
import json
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partmon.datamodel
from partmon.datamodel import (
    Detection,
    DetectionClass,
    FilterMode,
    GroundTruth,
    GtAnnotation,
    Scene,
    filter_images_by_min_person_area,
    group_detections_only,
    group_into_scenes,
    load_category_map,
    load_detections,
    load_ground_truth,
    read_json,
)
from partmon.errors import ParseError, TaxonomyError, ValidationError
from partmon.geometry import Box, area, iou
from partmon.synth import SynthConfig, generate, write_corpus

from conftest import ann, det, part_det

CATEGORY_MAP = {1: DetectionClass.PERSON, 2: DetectionClass.TORSO, 9: DetectionClass.HEAD}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def gt_file(tmp_path):
    return write_json(
        tmp_path / "gt.json",
        {
            "images": [{"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"}],
            "annotations": [
                {"id": 10, "image_id": 1, "category_id": 1, "bbox": [0, 0, 50, 100]}
            ],
            "categories": [{"id": 1, "name": "person"}],
        },
    )


def test_taxonomy_has_nine_classes_one_person():
    assert len(DetectionClass) == 9


def test_classes_hash_by_identity():
    # Enum's own __hash__ runs in Python on every class-keyed lookup of the live frame path.
    assert DetectionClass.__hash__ is object.__hash__


def test_detection_validation():
    with pytest.raises(ValidationError):
        det(Box(0, 0, 10, 10), score=1.5)
    with pytest.raises(ValidationError):
        det(Box(0, 0, 0, 10), score=0.5)
    with pytest.raises(ValidationError):
        ann(Box(0, 0, 10, 0))


@pytest.mark.parametrize("bbox", [
    [math.nan, 0, 10, 10],
    [0, 0, math.inf, 10],
    [1e308, 0, 1e308, 1],
    [0, 0, 1e-200, 1e-200],
    [0, 0, 1e200, 1e200],
    [3, 4, 0, 10],
], ids=["nan-x", "infinite-w", "overflowing-far-edge", "underflowing-area", "area-above-half-max", "zero-width"])
def test_records_refuse_the_boxes_the_loaders_refuse_with_their_message(tmp_path, bbox):
    dets = write_json(tmp_path / "dets.json", [{"image_id": 1, "category_id": 1, "bbox": bbox, "score": 0.9}])
    gt = write_json(tmp_path / "gt.json", {"images": [{"id": 1}], "annotations": [
        {"id": 7, "image_id": 1, "category_id": 1, "bbox": bbox}]})
    for build, load in ((lambda: det(Box(*bbox), det_id=0), lambda: load_detections(dets, CATEGORY_MAP)),
                        (lambda: ann(Box(*bbox), ann_id=7), lambda: load_ground_truth(gt, CATEGORY_MAP))):
        with pytest.raises(ValidationError) as loaded:
            load()
        with pytest.raises(ValidationError) as built:
            build()
        assert str(built.value) == str(loaded.value)


@pytest.mark.parametrize("score", [True, None, "high", " 0.5", 1.5, math.nan, 10**400],
                         ids=["boolean", "null", "word", "padded", "above-one", "nan", "integer-beyond-float"])
def test_detection_refuses_the_scores_the_loader_refuses_with_its_message(tmp_path, score):
    dets = write_json(tmp_path / "dets.json", [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10],
                                                "score": score}])
    with pytest.raises(ValidationError) as loaded:
        load_detections(dets, CATEGORY_MAP)
    with pytest.raises(ValidationError) as built:
        det(Box(0, 0, 10, 10), score=score, det_id=0)
    assert str(built.value) == str(loaded.value)


def test_detection_holds_the_float_score_and_the_box_it_was_given():
    box = Box(0, 0, 10, 10)
    built = det(box, score="0.5")
    assert built.score.__class__ is float and built.score == 0.5
    assert built.box == box and ann(box).box == box
    assert [v.__class__ for v in (built.box.x, built.box.y, built.box.w, built.box.h)] == [float] * 4


def test_load_ground_truth_basic(gt_file):
    gt = load_ground_truth(gt_file, CATEGORY_MAP)
    assert len(gt.annotations) == 1
    record = gt.annotations[0]
    assert record.category is DetectionClass.PERSON
    assert area(record.box) == 5000
    assert gt.images == (1,)


def test_load_ground_truth_unknown_category(tmp_path):
    path = write_json(
        tmp_path / "gt.json",
        {
            "images": [{"id": 1}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 99, "bbox": [0, 0, 5, 5]}],
        },
    )
    with pytest.raises(TaxonomyError, match="99"):
        load_ground_truth(path, CATEGORY_MAP)


def test_load_ground_truth_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"images": [', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_ground_truth(path, CATEGORY_MAP)
    assert err.value.offset is not None
    assert "byte offset" in str(err.value)


@pytest.mark.parametrize("payload, offset", [
    ('["ééééé", }', 15),  # 10 characters, but each é is two bytes
    (b'[1,\r\n}', 5),  # no newline translation
], ids=["multibyte-characters", "crlf"])
def test_parse_error_reports_the_byte_offset(tmp_path, payload, offset):
    path = tmp_path / "bad.json"
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode("utf-8"))
    with pytest.raises(ParseError) as err:
        read_json(path)
    assert err.value.offset == offset
    assert f"(byte offset {offset})" in str(err.value)


def test_largest_accepted_box_has_a_finite_iou_with_itself(tmp_path):
    # Area 8.98e307, just under half the float range; 1e154 x 1e154 is rejected.
    big = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1e154, 8.98e153], "score": 0.9}
    (det_,) = load_detections(write_json(tmp_path / "big.json", [big]), CATEGORY_MAP)
    assert iou(det_.box, det_.box) == 1.0
    big["bbox"] = [0, 0, 1e154, 1e154]
    with pytest.raises(ValidationError, match="area overflows"):
        load_detections(write_json(tmp_path / "bigger.json", [big]), CATEGORY_MAP)


def test_load_ground_truth_negative_extent_names_annotation(tmp_path):
    path = write_json(
        tmp_path / "gt.json",
        {
            "images": [{"id": 1}],
            "annotations": [{"id": 77, "image_id": 1, "category_id": 1, "bbox": [0, 0, -5, 5]}],
        },
    )
    with pytest.raises(ValidationError, match="77"):
        load_ground_truth(path, CATEGORY_MAP)


def test_load_ground_truth_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_ground_truth(tmp_path / "nope.json", CATEGORY_MAP)


def test_load_detections_basic(tmp_path):
    path = write_json(
        tmp_path / "dets.json",
        [{"image_id": 7, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.9}],
    )
    dets = load_detections(path, CATEGORY_MAP)
    assert dets == (
        Detection(image_id=7, category=DetectionClass.PERSON, box=Box(1, 2, 3, 4), score=0.9, det_id=0),
    )


def test_integral_float_and_string_values_still_load(tmp_path):
    # Only booleans and fractional ids are refused; integral floats and numeric strings convert.
    path = write_json(
        tmp_path / "dets.json",
        [{"image_id": 7.0, "category_id": "1", "bbox": ["1", 2.0, 3, 4], "score": 1}],
    )
    assert load_detections(path, CATEGORY_MAP) == (
        Detection(image_id=7, category=DetectionClass.PERSON, box=Box(1, 2, 3, 4), score=1.0, det_id=0),
    )
    gt = write_json(tmp_path / "gt.json", {"images": [{"id": "3"}], "annotations": [
        {"id": 1, "image_id": 3.0, "category_id": 9.0, "bbox": [0, 0, 5, 5]}]})
    loaded = load_ground_truth(gt, CATEGORY_MAP)
    assert loaded.images == (3,)
    assert [(a.image_id, a.category) for a in loaded.annotations] == [(3, DetectionClass.HEAD)]


# Each value in a form the loaders convert: a JSON integer, an integral float, or a numeric string.
def _spelled(values):
    return values.flatmap(lambda v: st.sampled_from([v, float(v), str(v)]))


_coords = st.integers(-1000, 1000) | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_extents = st.integers(1, 1000) | st.floats(1e-3, 1e6)
_bbox = st.tuples(_coords, _coords, _extents, _extents).flatmap(
    lambda values: st.tuples(*(st.sampled_from([v, str(v)]) for v in values)).map(list))
_image_ids = _spelled(st.integers(0, 10**6))
_category_ids = _spelled(st.sampled_from(sorted(CATEGORY_MAP)))
_scores = st.floats(0.0, 1.0) | st.sampled_from([0, 1]) | st.floats(0.0, 1.0).map(str)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fixed_dictionaries({"image_id": _image_ids, "category_id": _category_ids, "bbox": _bbox,
                                       "score": _scores}), max_size=5))
def test_loaded_detections_equal_public_constructions(tmp_path_factory, entries):
    path = write_json(tmp_path_factory.mktemp("dets") / "dets.json", entries)
    expected = tuple(
        Detection(image_id=int(e["image_id"]), category=CATEGORY_MAP[int(e["category_id"])],
                  box=Box(*map(float, e["bbox"])), score=float(e["score"]), det_id=index)
        for index, e in enumerate(entries)
    )
    loaded = load_detections(path, CATEGORY_MAP)
    assert loaded == expected
    assert [hash(d) for d in loaded] == [hash(d) for d in expected]
    assert [repr(d) for d in loaded] == [repr(d) for d in expected]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fixed_dictionaries({"id": st.none() | st.integers() | st.text(max_size=3),
                                       "image_id": _image_ids, "category_id": _category_ids, "bbox": _bbox}),
                max_size=5))
def test_loaded_annotations_equal_public_constructions(tmp_path_factory, entries):
    path = write_json(tmp_path_factory.mktemp("gt") / "gt.json", {"images": [], "annotations": entries})
    expected = tuple(
        GtAnnotation(image_id=int(e["image_id"]), category=CATEGORY_MAP[int(e["category_id"])],
                     box=Box(*map(float, e["bbox"])), ann_id=e["id"])
        for e in entries
    )
    loaded = load_ground_truth(path, CATEGORY_MAP).annotations
    assert loaded == expected
    assert [hash(a) for a in loaded] == [hash(a) for a in expected]
    assert [repr(a) for a in loaded] == [repr(a) for a in expected]


def test_loaded_records_are_frozen(tmp_path, gt_file):
    (detection,) = load_detections(write_json(
        tmp_path / "dets.json", [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}]), CATEGORY_MAP)
    annotation = load_ground_truth(gt_file, CATEGORY_MAP).annotations[0]
    for record, name in ((detection, "score"), (detection, "box"), (detection.box, "w"),
                         (annotation, "image_id"), (annotation.box, "x")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 0)


def test_records_are_slotted(tmp_path, gt_file):
    # A per-instance __dict__ costs about 80 B of every loaded detection.
    (loaded_det,) = load_detections(write_json(
        tmp_path / "dets.json", [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}]), CATEGORY_MAP)
    gt = load_ground_truth(gt_file, CATEGORY_MAP)
    (loaded_scene,) = group_into_scenes(gt, [loaded_det], []).scenes
    box = Box(0, 0, 5, 5)
    built = (box, det(box), ann(box), Scene(1, (det(box),)))
    loaded = (loaded_det.box, loaded_det, gt.annotations[0], loaded_scene)
    for record in built + loaded:
        assert not hasattr(record, "__dict__"), type(record).__name__
        for name in record.__dataclass_fields__:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        # A name that is no field is refused as a field is, not with the TypeError that a slotted frozen
        # dataclass's generated __setattr__ raises on CPython 3.10-3.13.
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
            record.extra = 0
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'extra'"):
            del record.extra
    # The loaders fill a draft and then set its __class__: a draft type that leaks out, or a draft layout that
    # stops matching its record's on some CPython, shows here.
    for record, cls in zip(loaded, (Box, Detection, GtAnnotation)):
        assert type(record) is cls
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(copied) is cls and copied == record


def test_loaded_detection_retains_few_bytes(tmp_path):
    # Retained per detection: 288 B slotted on CPython 3.10-3.13; 352-456 B with a __dict__ per record.
    paths = write_corpus(generate(SynthConfig(seed=1, n_scenes=300)), tmp_path)
    entries = json.loads(paths["parts"].read_text(encoding="utf-8"))[:2000]
    assert len(entries) == 2000
    dets_file = write_json(tmp_path / "dets.json", entries)
    category_map = load_category_map(paths["category_map"])
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dets = load_detections(dets_file, category_map)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained / len(dets) < 330


def test_loaders_release_each_decoded_entry(monkeypatch, tmp_path):
    # Each decoded dict is freed once its record is built, not with the whole file after the last one.
    paths = write_corpus(generate(SynthConfig(seed=2, n_scenes=5)), tmp_path)
    category_map = load_category_map(paths["category_map"])
    decoded = []

    def keeping_read_json(path):
        decoded.append(read_json(path))
        return decoded[-1]

    monkeypatch.setattr(partmon.datamodel, "read_json", keeping_read_json)
    gt = load_ground_truth(paths["gt"], category_map)
    dets = load_detections(paths["parts"], category_map)
    raw_gt, raw_dets = decoded
    for entries, records in ((raw_gt["images"], gt.images), (raw_gt["annotations"], gt.annotations),
                             (raw_dets, dets)):
        assert len(entries) == len(records) > 0
        assert entries == [None] * len(records)


_GOOD_BOX, _ZERO_WIDTH = [0, 0, 5, 5], [0, 0, 0, 5]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("valid", [True, False], ids=["loads", "raises"])
@pytest.mark.parametrize("loader", ["ground-truth", "detections"])
def test_loaders_pause_the_collector_and_restore_its_state(monkeypatch, tmp_path, loader, valid, enabled):
    seen = []  # the collector's state while the loader decodes its file and at each image id it parses
    for name in ("read_json", "_parse_image_id"):
        def recording(*args, original=getattr(partmon.datamodel, name)):
            seen.append(gc.isenabled())
            return original(*args)

        monkeypatch.setattr(partmon.datamodel, name, recording)
    last = _GOOD_BOX if valid else _ZERO_WIDTH  # the second entry's box: a refusal comes after one parsed image id
    if loader == "ground-truth":
        path = write_json(tmp_path / "gt.json", {"images": [{"id": 1}], "annotations": [
            {"id": k, "image_id": 1, "category_id": 1, "bbox": box} for k, box in enumerate((_GOOD_BOX, last))]})
        load = load_ground_truth
    else:
        path = write_json(tmp_path / "dets.json", [{"image_id": 1, "category_id": 1, "bbox": box, "score": 0.5}
                                                   for box in (_GOOD_BOX, last)])
        load = load_detections
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if valid:
            load(path, CATEGORY_MAP)
        else:
            with pytest.raises(ValidationError, match="bbox width and height must be positive"):
                load(path, CATEGORY_MAP)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert len(seen) >= 2 and not any(seen)


def test_load_detections_empty_and_bad_score(tmp_path):
    assert load_detections(write_json(tmp_path / "e.json", []), CATEGORY_MAP) == ()
    path = write_json(
        tmp_path / "bad.json",
        [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 1.5}],
    )
    with pytest.raises(ValidationError, match="score"):
        load_detections(path, CATEGORY_MAP)


def test_category_map_loading_and_merging(tmp_path):
    path = write_json(
        tmp_path / "map.json",
        {"1": "Person", "4": "UpperArm", "5": "UpperArm"},
    )
    mapping = load_category_map(path)
    assert mapping[4] is mapping[5] is DetectionClass.UPPER_ARM

    bad = write_json(tmp_path / "bad_map.json", {"1": "Centaur"})
    with pytest.raises(TaxonomyError, match="Centaur"):
        load_category_map(bad)


def test_round_trip_ground_truth_and_detections(tmp_path):
    # The loaders read a COCO file into the records built by hand from the same values. An image
    # entry's width, height and file_name are accepted and not read.
    category_map = {1: DetectionClass.PERSON, 9: DetectionClass.HEAD, 2: DetectionClass.TORSO}
    gt_path = write_json(tmp_path / "gt.json", {
        "images": [{"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"}, {"id": 2}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0.0, 0.0, 50.5, 100.0]},
            {"id": 2, "image_id": 2, "category_id": 9, "bbox": [3.0, 4.0, 10.0, 10.0]},
        ],
        "categories": [{"id": 1, "name": "Person"}, {"id": 9, "name": "Head"}],
    })
    assert load_ground_truth(gt_path, category_map) == GroundTruth(
        annotations=(
            ann(Box(0, 0, 50.5, 100), image_id=1, ann_id=1),
            ann(Box(3, 4, 10, 10), image_id=2, category=DetectionClass.HEAD, ann_id=2),
        ),
        images=(1, 2),
    )

    det_path = write_json(tmp_path / "dets.json", [
        {"image_id": 1, "category_id": 1, "bbox": [1.0, 2.0, 3.25, 4.0], "score": 0.5},
        {"image_id": 2, "category_id": 2, "bbox": [9.0, 9.0, 2.0, 2.0], "score": 0.125},
    ])
    assert load_detections(det_path, category_map) == (
        det(Box(1, 2, 3.25, 4), image_id=1, score=0.5, det_id=0),
        part_det(Box(9, 9, 2, 2), image_id=2, score=0.125, det_id=1),
    )


@pytest.mark.parametrize("classes", [(), {DetectionClass.PERSON}, frozenset(DetectionClass)],
                         ids=["no-class", "person", "all-nine"])
def test_load_ground_truth_keeps_the_given_classes_and_every_entry_on_an_unlisted_image(tmp_path, classes):
    # Every third annotation also appears, after its original, on one of two images the file does not list.
    paths = write_corpus(generate(SynthConfig(seed=4, n_scenes=6)), tmp_path)
    category_map = load_category_map(paths["category_map"])
    raw = json.loads(paths["gt"].read_text())
    annotations = []
    for index, entry in enumerate(raw["annotations"]):
        annotations += [entry, dict(entry, id=1000 + index, image_id=900 + index % 2)][:1 + (index % 3 == 0)]
    write_json(paths["gt"], dict(raw, annotations=annotations))

    full = load_ground_truth(paths["gt"], category_map)
    loaded = load_ground_truth(paths["gt"], category_map, classes)
    assert loaded.images == full.images and 900 not in full.images
    assert loaded.annotations == tuple(a for a in full.annotations
                                       if a.category in classes or a.image_id not in full.images)
    strays = {a.category for a in full.annotations if a.image_id >= 900}
    assert DetectionClass.PERSON in strays and len(strays) > 2  # the unlisted images hold persons and parts
    assert len({a.category for a in full.annotations}) == len(DetectionClass)


def _gt_with_person_areas(areas_by_image):
    annotations = []
    images = []
    ann_id = 1
    for img_id, person_areas in areas_by_image.items():
        images.append(img_id)
        for person_area in person_areas:
            annotations.append(
                ann(Box(0, 0, person_area / 10, 10), image_id=img_id, ann_id=ann_id)
            )
            ann_id += 1
    return GroundTruth(annotations=tuple(annotations), images=tuple(images))


def test_filter_modes():
    gt = _gt_with_person_areas({1: [3000, 5000], 2: [2000], 3: []})
    kept_voc = filter_images_by_min_person_area(gt, 2247, FilterMode.DROP_IF_ANY_BELOW)
    kept_coco = filter_images_by_min_person_area(gt, 2247, FilterMode.REQUIRE_ALL_ABOVE)
    assert kept_voc == {1, 3}
    assert kept_coco == {1}


def test_filter_boundary_area_is_retained():
    gt = _gt_with_person_areas({1: [2247]})
    assert filter_images_by_min_person_area(gt, 2247, FilterMode.DROP_IF_ANY_BELOW) == {1}
    assert filter_images_by_min_person_area(gt, 2247, FilterMode.REQUIRE_ALL_ABOVE) == {1}


def test_filter_refuses_a_negative_min_area():
    gt = _gt_with_person_areas({1: [2247]})
    for min_area in (-1, float("nan")):  # every comparison with NaN is false, so it would keep every image
        with pytest.raises(ValidationError, match=rf"^min_area must be non-negative, got {min_area}$"):
            filter_images_by_min_person_area(gt, min_area)


def test_filter_ignores_part_annotations():
    gt = GroundTruth(
        annotations=(
            ann(Box(0, 0, 100, 100), image_id=1, ann_id=1),
            ann(Box(0, 0, 2, 2), image_id=1, category=DetectionClass.HAND, ann_id=2),
            ann(Box(0, 0, 100, 100), image_id=2, category=DetectionClass.HEAD, ann_id=3),
        ),
        images=(1, 2),
    )
    assert filter_images_by_min_person_area(gt, 2247, FilterMode.DROP_IF_ANY_BELOW) == {1, 2}
    # A part annotation is not a person: an image of parts alone has none.
    assert filter_images_by_min_person_area(gt, 2247, FilterMode.REQUIRE_ALL_ABOVE) == {1}


@given(
    st.dictionaries(
        st.integers(1, 20),
        st.lists(st.integers(1, 6000).map(float), max_size=4),
        max_size=8,
    ),
    st.lists(st.integers(0, 7000), min_size=2, max_size=6),
)
def test_filter_monotone_in_min_area(areas_by_image, thresholds):
    gt = _gt_with_person_areas(areas_by_image)
    for mode in FilterMode:
        previous = None
        for min_area in sorted(thresholds):
            kept = filter_images_by_min_person_area(gt, min_area, mode)
            if previous is not None:
                assert kept <= previous
            previous = kept


def test_group_into_scenes_covers_all_gt_images():
    gt = GroundTruth(
        annotations=(ann(Box(0, 0, 10, 10), image_id=1, ann_id=1),),
        images=(1, 2),
    )
    result = group_into_scenes(gt, [det(Box(0, 0, 10, 10), image_id=1)], [])
    assert [s.image_id for s in result.scenes] == [1, 2]
    assert len(result.scenes[0].persons) == 1
    assert result.scenes[1].persons == () and result.scenes[1].parts == ()
    assert result.warnings == ()


def test_group_into_scenes_warns_on_unknown_image():
    gt = GroundTruth(annotations=(), images=(1,))
    orphan = det(Box(0, 0, 10, 10), image_id=42, det_id=3)
    result = group_into_scenes(gt, [orphan], [])
    assert len(result.warnings) == 1
    assert "42" in result.warnings[0]


def test_group_into_scenes_class_split_allows_joint_stream():
    # One jointly trained detector: the same mixed stream passed as both inputs.
    gt = GroundTruth(annotations=(), images=(1,))
    stream = [
        det(Box(0, 0, 10, 10), image_id=1, det_id=0),
        part_det(Box(1, 1, 2, 2), image_id=1, det_id=1),
    ]
    result = group_into_scenes(gt, stream, stream)
    scene = result.scenes[0]
    assert [d.det_id for d in scene.persons] == [0]
    assert [d.det_id for d in scene.parts] == [1]


def test_group_into_scenes_warns_per_stream_in_stream_order():
    annotations = (ann(Box(0, 0, 10, 10), image_id=1, ann_id=1), ann(Box(0, 0, 10, 10), image_id=7, ann_id=2),
                   ann(Box(0, 0, 2, 2), image_id=9, category=DetectionClass.HEAD, ann_id=3))
    gt = GroundTruth(annotations=annotations, images=(1,))
    persons = [det(Box(0, 0, 10, 10), image_id=42, det_id=3), det(Box(0, 0, 10, 10), image_id=1, det_id=4)]
    parts = [part_det(Box(0, 0, 2, 2), image_id=7, det_id=5), part_det(Box(0, 0, 2, 2), image_id=8, det_id=6)]
    result = group_into_scenes(gt, persons, parts)
    assert result.warnings == (
        "person detection det_id=3 references unknown image id 42",
        "part detection det_id=5 references unknown image id 7",
        "part detection det_id=6 references unknown image id 8",
        "annotation id=2 references unknown image id 7",
        "annotation id=3 references unknown image id 9",
    )
    assert [(s.image_id, [d.det_id for d in s.persons], s.parts, [a.ann_id for a in s.gt])
            for s in result.scenes] == [(1, [4], (), [1])]


def test_group_joint_stream_without_ground_truth():
    # With no ground truth, the scenes are the images holding a kept detection: a
    # person entry of the person stream or a part entry of the part stream.
    stream = [
        det(Box(0, 0, 10, 10), image_id=4, det_id=0),
        part_det(Box(1, 1, 2, 2), image_id=2, det_id=1),
        det(Box(0, 0, 10, 10), image_id=1, det_id=2),
        part_det(Box(1, 1, 2, 2), image_id=4, det_id=3),
    ]
    result = group_into_scenes(None, stream, stream)
    assert result.warnings == ()
    assert [(s.image_id, [d.det_id for d in s.persons], [d.det_id for d in s.parts], s.gt)
            for s in result.scenes] == [(1, [2], [], ()), (2, [], [1], ()), (4, [0], [3], ())]
    assert group_into_scenes(None, stream[1:2], stream[:1]).scenes == ()


def test_group_scene_partition_accounting():
    gt = GroundTruth(annotations=(), images=(1, 2))
    persons = [det(Box(0, 0, 10, 10), image_id=i, det_id=i) for i in (1, 1, 2)]
    orphans = [det(Box(0, 0, 10, 10), image_id=9, det_id=9)]
    result = group_into_scenes(gt, persons + orphans, [])
    total = sum(len(s.persons) for s in result.scenes)
    assert total == len(persons + orphans) - len(result.warnings)


def test_group_into_scenes_respects_image_subset():
    gt = GroundTruth(annotations=(), images=(1, 2))
    result = group_into_scenes(gt, [det(Box(0, 0, 5, 5), image_id=2)], [], image_ids={1})
    assert [s.image_id for s in result.scenes] == [1]
    assert result.warnings == ()  # image 2 is known, just unselected


def test_group_into_scenes_gives_an_unlisted_image_no_scene_even_when_selected():
    gt = GroundTruth(annotations=(ann(Box(0, 0, 10, 10), image_id=7, ann_id=2),), images=(1,))
    persons = [det(Box(0, 0, 10, 10), image_id=7, det_id=0), det(Box(0, 0, 10, 10), image_id=1, det_id=1)]
    result = group_into_scenes(gt, persons, [], image_ids={1, 7, 8})
    assert [(s.image_id, [d.det_id for d in s.persons], s.gt) for s in result.scenes] == [(1, [1], ())]
    assert result.warnings == ("person detection det_id=0 references unknown image id 7",
                               "annotation id=2 references unknown image id 7")


def test_group_detections_only():
    scenes = group_detections_only(
        [det(Box(0, 0, 10, 10), image_id=5)],
        [part_det(Box(0, 0, 2, 2), image_id=3)],
    )
    assert [s.image_id for s in scenes] == [3, 5]
    assert scenes[0].gt == () and scenes[1].gt == ()


def test_scene_gt_persons_filters_parts():
    scene = Scene(
        image_id=1,
        gt=(
            ann(Box(0, 0, 10, 10), ann_id=1),
            ann(Box(0, 0, 2, 2), category=DetectionClass.TORSO, ann_id=2),
        ),
    )
    assert [a.ann_id for a in scene.gt_persons()] == [1]
