"""Operating-point selection.

Per-class confidence thresholds come from an exhaustive sweep over the
observed scores, keeping the best F1. ``_sweep`` walks the images once
(``build_operating_point``'s scenes, or one class's records grouped by image
in ``select_confidence_threshold``), splits each by class in one pass that
prepares the ground-truth boxes, and makes one ``partition._matches`` call per
class with both sides non-empty. Matches do not depend on the threshold: under
greedy matching the detections kept at any threshold (ties kept or dropped
together) are a prefix of the score-descending visiting order. A box is missed
at t iff its best matched score is not kept, so one walk down each class's
distinct scores, adding up per-score counts, scores every candidate; and the
person pairs label each scene with no second ``partition`` pass: FP iff a kept
person is in no pair, FN iff a ground-truth person is missed. The two overlap
parameters are chosen independently over a regular grid in (0, 1) by the
Matthews correlation of the per-image alerts against the ground-truth image
labels: the FP alert depends only on alpha_fp, the FN alert only on alpha_fn,
and each turns on at most once as alpha grows.

Each choice is the first maximum of its score along a walk in tie-break
order. Thresholds are walked from the top down, so equal F1 keeps the higher
threshold (fewer retained detections); alphas from the bottom up, so equal
MCC keeps the smaller alpha (more sensitive monitor).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

from .datamodel import _CLASS_BY_NAME, Detection, DetectionClass, GtAnnotation, Scene, _number, read_json
from .errors import CalibrationError, ValidationError, check_open_unit
from .monitor import overlaps
from .partition import GtPartition, MatchingMode, _matches, partition  # noqa: F401 (perfbench swaps partition)

_ONE_PLUS_ULP = math.nextafter(1.0, math.inf)
_OPERATING_POINT_KEYS = ("conf", "alpha_fp", "alpha_fn", "tau", "strict_conf")


@dataclass(frozen=True)
class OperatingPoint:
    """Confidence thresholds plus the monitor's overlap/IoU parameters.

    A confidence threshold may exceed 1.0 by one float ulp: that is the
    discard-everything threshold selected when no score ever helps.
    ``strict_conf`` is the rule the thresholds were chosen under, and the
    one every consumer applies: keep ``score > t`` rather than ``score >= t``.
    """

    conf_thresholds: Mapping[DetectionClass, float]
    alpha_fp: float
    alpha_fn: float
    tau: float
    strict_conf: bool = False

    def __post_init__(self):
        for cls, value in self.conf_thresholds.items():
            if not 0.0 <= value <= _ONE_PLUS_ULP:
                raise ValidationError(f"confidence threshold for {cls.value} outside [0, 1]: {value}")
        check_open_unit("alpha_fp", self.alpha_fp), check_open_unit("alpha_fn", self.alpha_fn)
        check_open_unit("tau", self.tau)

    def to_json_dict(self) -> dict:
        conf = {cls.value: value for cls, value in sorted(self.conf_thresholds.items(), key=lambda kv: kv[0].value)}
        raw = {"conf": conf, "alpha_fp": self.alpha_fp, "alpha_fn": self.alpha_fn, "tau": self.tau}
        # strict_conf is written only when set, so a non-strict operating point keeps its bytes.
        return {**raw, "strict_conf": True} if self.strict_conf else raw

    @classmethod
    def from_json_dict(cls, raw: dict) -> "OperatingPoint":
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
            unknown = [key for key in raw if key not in _OPERATING_POINT_KEYS]
            if unknown:  # a misspelt key would otherwise load as its default
                raise ValueError(f"unknown key {unknown[0]!r}")
            if not isinstance(raw.get("conf", {}), dict):
                raise ValueError("'conf' must be an object of class thresholds")
            conf = {}
            for name, v in raw["conf"].items():  # each entry's class, then its number, in file order
                if name not in _CLASS_BY_NAME:
                    raise ValueError(f"conf class {name!r} is not one of {sorted(_CLASS_BY_NAME)}")
                conf[_CLASS_BY_NAME[name]] = _number(v, "conf {!r} must be a number, got {!r}", name)
            strict_conf = raw.get("strict_conf", False)
            if strict_conf.__class__ is not bool:
                raise ValueError(f"'strict_conf' must be a boolean, got {strict_conf!r}")
            values = {name: _number(raw[name], "{} must be a number, got {!r}", name)
                      for name in ("alpha_fp", "alpha_fn", "tau")}
            return cls(conf_thresholds=conf, **values, strict_conf=strict_conf)
        except KeyError as exc:  # only a missing required key raises it
            raise ValidationError(f"invalid operating point: missing key {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"invalid operating point: {exc}") from exc

    @classmethod
    def load(cls, path) -> "OperatingPoint":
        return cls.from_json_dict(read_json(path, unique_keys=True))


def mcc_from_counts(tp: int, fp: int, fn: int, tn: int) -> float:
    """Matthews correlation coefficient; 0 when any denominator factor is 0."""
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(den)


def _grid_length(step: float) -> int:
    """The number of points of ``alpha_grid(step)``, counted without building them."""
    if not 0.0 < step < 1.0:
        raise CalibrationError(f"grid step must lie in (0, 1), got {step}")
    if round(step, 10) == 0.0:  # grid values would start at 0.0, no alpha
        raise CalibrationError(f"grid step {step} rounds to 0 at the grid's 10 decimal places")
    # Point k grows with k, and point int(1 / step) is past 1: the count is the first k reaching 1 - 1e-9.
    n = bisect_left(range(int(1 / step)), 1.0 - 1e-9, key=lambda k: round((k + 1) * step, 10))
    if not n:
        raise CalibrationError(f"grid step {step} leaves no grid point in (0, 1)")
    return n


def alpha_grid(step: float) -> list[float]:
    """The candidate overlap values {step, 2*step, ...} inside (0, 1), rounded to 10 decimal places."""
    return [round((k + 1) * step, 10) for k in range(_grid_length(step))]


def select_confidence_threshold(
    dets: Sequence[Detection],
    gts: Sequence[GtAnnotation],
    tau: float,
    matching: MatchingMode = MatchingMode.EXISTENTIAL,
    strict: bool = False,
) -> float:
    """Pick the score cutoff with the best F1 for one class, its records grouped by image for ``_sweep``.

    Candidates are the distinct observed scores, +0.0 (never -0.0), and one value just above the maximum score (the
    discard-everything option). Detections are retained when score >= threshold, or score > threshold with
    ``strict``. With no detections at all the threshold is 1.0, since there is nothing to retain. Otherwise raises
    ValidationError when the detections and annotations are of more than one class, and CalibrationError when the
    class has no ground-truth instances (F1 undefined).
    """
    if not dets:
        return 1.0
    images = defaultdict(lambda: ([], []))  # per image, its ground truth and detections
    for g in gts:
        images[g.image_id][0].append(g)
    for d in dets:
        images[d.image_id][1].append(d)
    sweeps, _ = _sweep(images.values(), tau, matching)
    if len(classes := sorted(cls.value for cls in sweeps)) > 1:  # their records would pool into one F1
        raise ValidationError(f"select_confidence_threshold takes one class, got {classes[0]} and {classes[1]}")
    return _max_f1_threshold(dets[0].category, *sweeps[dets[0].category], strict)


def _sweep(images, tau: float, matching: MatchingMode) -> tuple[dict, list[tuple[float, float]]]:
    """Per image (``images``: each image's (ground truth, detections)), one pass splitting it by class and building
    the ground-truth boxes as ``_matches`` takes them, then one ``_matches`` call per class with both sides non-empty:
    each class's score lists for ``_max_f1_threshold``, and each image's person scores for ``build_operating_point``."""
    check_open_unit("tau", tau)  # once, for every ``_matches`` call below
    sweeps, persons = defaultdict(lambda: ([], [], [])), []
    for gts, image_dets in images:
        by_class, unpaired, covered = {}, -1.0, math.inf  # by_class: {class: (detections, ground-truth boxes)}
        for g in gts:
            if (pair := by_class.get(g.category)) is None:
                pair = by_class[g.category] = ([], [])
            boxes, b = pair[1], g.box
            boxes.append((b.x, b.y, b.x + b.w, b.y + b.h, b.w * b.h, len(boxes)))
        for d in image_dets:
            if (pair := by_class.get(d.category)) is None:
                pair = by_class[d.category] = ([], [])
            pair[0].append(d)
        for cls, (dets, boxes) in by_class.items():
            all_dets, matched_scores, best_scores = sweeps[cls]
            best, matched = [-1.0] * len(boxes), {}
            for i, j in _matches(dets, boxes, tau, matching) if dets and boxes else ():
                matched[i] = score = dets[i].score
                if score > best[j]:
                    best[j] = score
            all_dets += dets
            matched_scores += matched.values()
            best_scores += best
            if cls is DetectionClass.PERSON:
                unpaired = max([d.score for i, d in enumerate(dets) if i not in matched], default=-1.0)
                covered = min(best, default=math.inf)
        persons.append((unpaired, covered))
    return sweeps, persons


def _max_f1_threshold(cls, dets, matched_scores, best_scores, strict) -> float:
    """The first threshold of best F1 from the top down, from one class's detections, the matched ones' scores and
    each ground-truth box's best matched score (-1.0: unmatched): one walk down the distinct positive scores, then
    0.0 (never -0.0), adds up the counts kept. Discarding everything scores F1 0: a candidate wins by a higher F1."""
    if not best_scores:
        raise CalibrationError(f"F1 undefined for class {cls.value}: no ground-truth instances")
    counts, matched, best = Counter([d.score for d in dets]), Counter(matched_scores), Counter(best_scores)
    chosen, top_f1, kept, tp, covered = math.nextafter(max(counts), math.inf), 0.0, 0, 0, 0
    walk = sorted([score for score in counts if score > 0.0], reverse=True) + [0.0]
    for t, score in zip(walk, [None, *walk] if strict else walk):  # under strict, t keeps the scores above it
        kept, tp, covered = kept + counts.get(score, 0), tp + matched.get(score, 0), covered + best.get(score, 0)
        fn = len(best_scores) - covered
        precision, recall = tp / kept if kept else 0.0, tp / (tp + fn) if tp + fn else 0.0
        if (f1 := 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0) > top_f1:
            chosen, top_f1 = t, f1
    return chosen


def select_alphas(
    scenes: Sequence[Scene],
    partitions: Sequence[GtPartition],
    grid_step: float = 0.05,
    threads: int = 1,
) -> tuple[float, float]:
    """Sweep the overlap grid and return (alpha_fp, alpha_fn) with maximal MCC.

    Each alert type is scored independently against its own image labels
    (|fp_gt| >= 1 or |fn_gt| >= 1 per scene).

    Grid point k is ``round((k + 1) * grid_step, 10)``, computed on demand. A
    pair passes the overlap test on a grid prefix of length ``int(inter /
    part_area / grid_step)``, settled by ``inter >= grid[k] * part_area``. The
    FP alert turns on at index min over persons of (max over their parts), the
    FN alert at min over parts of (max over persons), the length meaning never.
    Only index 0 and these flip indices, where the MCC changes, are scored.

    ``threads`` is accepted for compatibility and has no effect.
    """
    if not scenes:
        raise CalibrationError("cannot select alphas from an empty scene list")
    if len(partitions) != len(scenes):
        raise ValidationError(f"mismatched inputs: {len(scenes)} scenes, {len(partitions)} partitions")
    return _select_alphas(scenes, [(len(p.fp_gt) >= 1, len(p.fn_gt) >= 1) for p in partitions], grid_step)


def _select_alphas(
    scenes: Sequence[Scene], labels: Sequence[tuple[bool, bool]], grid_step: float
) -> tuple[float, float]:
    """``select_alphas`` on each scene's (FP, FN) image labels in place of its partition."""
    n = _grid_length(grid_step)
    points = {}  # alpha_grid(grid_step)[k] for each k read so far; no point is 0.0, so ``points.get(k) or point(k)``
    point = lambda k: points.setdefault(k, round((k + 1) * grid_step, 10))  # noqa: E731
    # flips[kind][label][k]: scenes whose alert of that kind first turns on at point(k); k = n: never.
    flips = [[Counter(), Counter()], [Counter(), Counter()]]
    for scene, (fp_label, fn_label) in zip(scenes, labels):
        # best_fp[i]: grid points at which person i is supported; best_fn[j]: at which part j is covered.
        best_fp, best_fn = [0] * len(scene.persons), [0] * len(scene.parts)
        for i, j, inter, part_area in overlaps(scene.persons, scene.parts, points.get(0) or point(0)):
            if (k := int(inter / part_area / grid_step)) > n:  # coverage near 1: past the last point
                k = n
            while k < n and inter >= (points.get(k) or point(k)) * part_area:
                k += 1
            while k and not inter >= (points.get(k - 1) or point(k - 1)) * part_area:
                k -= 1
            best_fp[i], best_fn[j] = k if k > best_fp[i] else best_fp[i], k if k > best_fn[j] else best_fn[j]
        flips[0][fp_label][min(best_fp, default=n)] += 1
        flips[1][fn_label][min(best_fn, default=n)] += 1

    def best_alpha(neg, pos):
        positives, negatives = sum(pos.values()), sum(neg.values())
        ks = sorted({0, *pos, *neg} - {n})  # the walk goes from the bottom up; see the module docstring
        # (k, tp, fp): at point(k) the alert is on in the scenes whose flip index is at most k.
        walk = zip(ks, accumulate(pos[k] for k in ks), accumulate(neg[k] for k in ks))
        k, _, _ = max(walk, key=lambda w: mcc_from_counts(w[1], w[2], positives - w[1], negatives - w[2]))
        return point(k)

    return best_alpha(*flips[0]), best_alpha(*flips[1])


def apply_confidence_thresholds(
    scenes: Sequence[Scene],
    conf: Mapping[DetectionClass, float],
    strict: bool = False,
) -> list[Scene]:
    """Drop detections below their class threshold; scenes keep their ground truth."""
    def kept(dets):  # a list, not a generator, for tuple(): faster on the one-scene calls of the frame path
        return tuple([d for d in dets if (d.score > conf[d.category] if strict else d.score >= conf[d.category])])

    try:
        return [Scene(s.image_id, kept(s.persons), kept(s.parts), s.gt) for s in scenes]
    except KeyError as exc:  # only conf[...] can raise it
        raise ValidationError(f"no confidence threshold for class {exc.args[0].value}") from None


def build_operating_point(
    scenes: Sequence[Scene],
    tau: float = 0.5,
    grid_step: float = 0.05,
    matching: MatchingMode = MatchingMode.EXISTENTIAL,
    strict_conf: bool = False,
    threads: int = 1,
) -> OperatingPoint:
    """Full calibration: per-class thresholds by max F1, then alphas by max MCC.

    ``threads`` is accepted for compatibility and has no effect.
    """
    sweeps, persons = _sweep(((s.gt, (*s.persons, *s.parts)) for s in scenes), tau, matching)
    classes = sorted([cls for cls, (dets, _, _) in sweeps.items() if dets], key=lambda c: c.value)
    if not classes:
        raise CalibrationError("no detections to calibrate on")
    conf = {cls: _max_f1_threshold(cls, *sweeps[cls], strict_conf) for cls in classes}
    # persons: per scene, the best score of a person in no pair (-1.0: none) and the least best score matched to a
    # ground-truth person (inf: none). Without person detections only -1.0 and inf occur: any threshold will do.
    t = conf.get(DetectionClass.PERSON, 0.0)
    kept = t.__lt__ if strict_conf else t.__le__
    labels = [(kept(unpaired), not kept(covered)) for unpaired, covered in persons]
    filtered = apply_confidence_thresholds(scenes, conf, strict=strict_conf)
    alpha_fp, alpha_fn = _select_alphas(filtered, labels, grid_step)
    return OperatingPoint(conf, alpha_fp=alpha_fp, alpha_fn=alpha_fn, tau=tau, strict_conf=strict_conf)
