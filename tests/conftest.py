"""Shared test helpers: box/record builders, hypothesis strategies and a corpus written by ``partmon synth``."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from click.testing import CliRunner
from hypothesis import strategies as st

from partmon.cli import cli
from partmon.datamodel import Detection, DetectionClass, GtAnnotation
from partmon.geometry import Box
from partmon.synth import CORPUS_FILES

# Integer-valued coordinates keep all box arithmetic exact in floats, so
# equality-based invariants can be asserted without tolerances.
int_coords = st.integers(-200, 200).map(float)
int_sizes = st.integers(0, 120).map(float)
pos_sizes = st.integers(1, 120).map(float)

boxes = st.builds(Box, int_coords, int_coords, int_sizes, int_sizes)
pos_boxes = st.builds(Box, int_coords, int_coords, pos_sizes, pos_sizes)

real_coords = st.floats(-200.0, 200.0, allow_nan=False, allow_infinity=False)
real_sizes = st.floats(0.5, 120.0, allow_nan=False, allow_infinity=False)
real_boxes = st.builds(Box, real_coords, real_coords, real_sizes, real_sizes)


def det(box: Box, image_id: int = 1, category: DetectionClass = DetectionClass.PERSON,
        score: float = 0.9, det_id: int | None = None) -> Detection:
    return Detection(image_id=image_id, category=category, box=box, score=score, det_id=det_id)


def part_det(box: Box, image_id: int = 1, category: DetectionClass = DetectionClass.TORSO,
             score: float = 0.9, det_id: int | None = None) -> Detection:
    return Detection(image_id=image_id, category=category, box=box, score=score, det_id=det_id)


def ann(box: Box, image_id: int = 1, category: DetectionClass = DetectionClass.PERSON,
        ann_id: int | None = None) -> GtAnnotation:
    return GtAnnotation(image_id=image_id, category=category, box=box, ann_id=ann_id)


def synth_corpus(config, out_dir) -> dict[str, Path]:
    """Write the corpus of a ``SynthConfig`` with ``partmon synth``, one flag per field; return its files by role."""
    args = ["synth", "--out", str(out_dir)]
    for f in fields(config):
        value = getattr(config, f.name)
        args += [f"--{f.name.replace('_', '-')}", "%d:%d" % value if isinstance(value, tuple) else repr(value)]
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    return {role: Path(out_dir) / name for role, name in CORPUS_FILES.items()}
