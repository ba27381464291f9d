"""Runtime plausibility monitor: per-image alerts and per-object verdicts.

Both rules cross-check person detections against body-part detections using
the overlap test intersection >= alpha * part_area, read off one pass over a
scene's overlapping person x part pairs. Quantifiers over empty sets follow
standard logic: a person detection in a scene with no parts at all has no
supporting evidence and is flagged, while an empty part set can never raise
a missing-person alert.

Inputs are assumed to be pre-filtered by per-class confidence thresholds;
the monitor itself never looks at scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .datamodel import Detection
from .errors import check_open_unit
from .geometry import DegeneratePartBoxError, overlap_pairs


@dataclass(frozen=True)
class AlertPair:
    """Per-image output: does the scene look like it contains an error?"""

    alert_fp: bool
    alert_fn: bool


@dataclass(frozen=True)
class MonitorVerdict:
    """Per-object output: plausibility-checked detection sets.

    tp_mon and fp_mon partition the input person detections; fn_mon holds the
    part detections that matched no person and therefore point at a possibly
    missed person.
    """

    tp_mon: tuple[Detection, ...]
    fp_mon: tuple[Detection, ...]
    fn_mon: tuple[Detection, ...]


def overlaps(persons: Sequence, parts: Sequence, alpha_min: float) -> list[tuple[int, int, float, float]]:
    """``(i, j, intersection, part_area)`` for each pair that can pass the overlap test at alpha >= alpha_min.

    Those are the overlapping pairs of persons[i] and parts[j] from
    ``geometry.overlap_pairs``. Where ``alpha_min * part_area`` underflows to
    0.0 the test passes with no overlap at all, so such a part is also paired
    with every person at intersection 0.0. Takes any records with a ``box``;
    raises DegeneratePartBoxError for a part box of zero area.
    """
    boxes, tiny = [], []
    for j, part in enumerate(parts):
        b = part.box
        part_area = b.w * b.h
        if part_area <= 0:
            raise DegeneratePartBoxError(f"degenerate part box: {b}")
        boxes.append((b.x, b.y, b.x + b.w, b.y + b.h, part_area, j))
        if alpha_min * part_area == 0.0:
            tiny.append((j, part_area))
    pairs = overlap_pairs(persons, boxes)
    return pairs + [(i, j, 0.0, part_area) for j, part_area in tiny for i in range(len(persons))] if tiny else pairs


def masks(persons: Sequence, parts: Sequence, alpha_fp: float, alpha_fn: float) -> tuple[list[bool], list[bool]]:
    """(supported, covered): per person, some part lies inside it by alpha_fp of the part's area;
    per part, some person covers alpha_fn of it. Parts are checked as in ``overlaps``."""
    supported, covered = [False] * len(persons), [False] * len(parts)
    for i, j, inter, part_area in overlaps(persons, parts, min(alpha_fp, alpha_fn)):
        if inter >= alpha_fp * part_area:
            supported[i] = True
        if inter >= alpha_fn * part_area:
            covered[j] = True
    return supported, covered


def per_image_rule(
    persons: Sequence[Detection], parts: Sequence[Detection], alpha_fp: float, alpha_fn: float
) -> AlertPair:
    """Raise scene-level alerts for suspected ghost persons and missed persons.

    alert_fp: some person detection overlaps every part by less than
    alpha_fp * part_area. alert_fn: some part detection overlaps every person
    by less than alpha_fn * part_area.
    """
    check_open_unit("alpha_fp", alpha_fp), check_open_unit("alpha_fn", alpha_fn)
    supported, covered = masks(persons, parts, alpha_fp, alpha_fn)
    return AlertPair(not all(supported), not all(covered))


def per_object_rule(
    persons: Sequence[Detection], parts: Sequence[Detection], alpha_fp: float, alpha_fn: float
) -> MonitorVerdict:
    """Classify each detection instead of the whole scene.

    A person with at least one part covered to alpha_fp of the part's area is
    plausible (tp_mon), otherwise suspected ghost (fp_mon). A part covered by
    no person to alpha_fn of its area is an orphan (fn_mon).
    """
    check_open_unit("alpha_fp", alpha_fp), check_open_unit("alpha_fn", alpha_fn)
    supported, covered = masks(persons, parts, alpha_fp, alpha_fn)
    return MonitorVerdict(
        tuple([p for p, keep in zip(persons, supported) if keep]),
        tuple([p for p, keep in zip(persons, supported) if not keep]),
        tuple([p for p, keep in zip(parts, covered) if not keep]),
    )
