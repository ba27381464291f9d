"""Runtime plausibility monitor: per-image alerts and per-object verdicts.

Both rules cross-check person detections against body-part detections using
the overlap test intersection >= alpha * part_area. Quantifiers over empty
sets follow standard logic: a person detection in a scene with no parts at
all has no supporting evidence and is flagged, while an empty part set can
never raise a missing-person alert.

Inputs are assumed to be pre-filtered by per-class confidence thresholds;
the monitor itself never looks at scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .datamodel import Detection
from .geometry import DegeneratePartBoxError, area, intersection_area


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
    alpha_fp: float
    alpha_fn: float


def check_inputs(parts: Sequence[Detection], alpha_fp: float, alpha_fn: float) -> None:
    """Reject alphas outside (0, 1) and part boxes of zero area."""
    if not 0.0 < alpha_fp < 1.0:
        raise ValueError(f"alpha_fp must lie in (0, 1), got {alpha_fp}")
    if not 0.0 < alpha_fn < 1.0:
        raise ValueError(f"alpha_fn must lie in (0, 1), got {alpha_fn}")
    for part in parts:
        if area(part.box) <= 0:
            raise DegeneratePartBoxError(f"degenerate part box: {part.box}")


def is_supported(person, parts: Sequence, alpha: float) -> bool:
    """True iff some part lies inside ``person`` by at least alpha of its own area.

    Takes any records with a ``box``, e.g. a missed annotation against orphans.
    """
    box = person.box
    return any(intersection_area(box, part.box) >= alpha * area(part.box) for part in parts)


def is_covered(part, persons: Sequence, alpha: float) -> bool:
    """True iff some box in ``persons`` (detections or annotations) covers alpha of ``part``."""
    box = part.box
    threshold = alpha * area(box)
    return any(intersection_area(person.box, box) >= threshold for person in persons)


def alert_fp(persons: Sequence[Detection], parts: Sequence[Detection], alpha: float) -> bool:
    """True iff some person is supported by no part at ``alpha``; inputs unchecked."""
    return not all(is_supported(person, parts, alpha) for person in persons)


def alert_fn(persons: Sequence[Detection], parts: Sequence[Detection], alpha: float) -> bool:
    """True iff some part is covered by no person at ``alpha``; inputs unchecked."""
    return not all(is_covered(part, persons, alpha) for part in parts)


def per_image_rule(
    persons: Sequence[Detection],
    parts: Sequence[Detection],
    alpha_fp: float,
    alpha_fn: float,
) -> AlertPair:
    """Raise scene-level alerts for suspected ghost persons and missed persons.

    alert_fp: some person detection overlaps every part by less than
    alpha_fp * part_area. alert_fn: some part detection overlaps every person
    by less than alpha_fn * part_area.
    """
    check_inputs(parts, alpha_fp, alpha_fn)
    return AlertPair(
        alert_fp=alert_fp(persons, parts, alpha_fp),
        alert_fn=alert_fn(persons, parts, alpha_fn),
    )


def per_object_rule(
    persons: Sequence[Detection],
    parts: Sequence[Detection],
    alpha_fp: float,
    alpha_fn: float,
) -> MonitorVerdict:
    """Classify each detection instead of the whole scene.

    A person with at least one part covered to alpha_fp of the part's area is
    plausible (tp_mon), otherwise suspected ghost (fp_mon). A part covered by
    no person to alpha_fn of its area is an orphan (fn_mon).
    """
    check_inputs(parts, alpha_fp, alpha_fn)
    tp, fp = [], []
    for person in persons:
        (tp if is_supported(person, parts, alpha_fp) else fp).append(person)
    return MonitorVerdict(
        tp_mon=tuple(tp),
        fp_mon=tuple(fp),
        fn_mon=tuple(part for part in parts if not is_covered(part, persons, alpha_fn)),
        alpha_fp=alpha_fp,
        alpha_fn=alpha_fn,
    )
