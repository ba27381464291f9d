"""Production metrics against the brute-force oracle on crowded, overlapping scenes.

The synth corpora used elsewhere never let a ghost touch a real person, so
the two overlap predicates of the per-object confusion are barely exercised
there. These scenes are built to hit them: persons clustered around one
anchor so they overlap each other, ghost persons shifted half a box off a
real one, parts straddling two persons, free-floating ghost parts, and part
ground truth for the ``ghost_all_classes`` anchor set.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from partmon.calibration import alpha_grid, select_alphas
from partmon.datamodel import DetectionClass, Scene
from partmon.evaluation import balances, object_confusion, per_image_counts
from partmon.geometry import Box
from partmon.monitor import per_image_rule, per_object_rule
from partmon.oracle import oracle_alphas, oracle_metrics
from partmon.partition import MatchingMode, partition

from conftest import ann, det, part_det, pos_boxes, pos_sizes

offsets = st.integers(-30, 30).map(float)
part_sizes = st.integers(1, 40).map(float)
grid_alphas = st.sampled_from(alpha_grid(0.05))
taus = st.sampled_from([0.3, 0.5, 0.7])


@st.composite
def crowded_scene(draw, image_id: int) -> Scene:
    anchor = draw(pos_boxes)
    gt_boxes = [anchor] + [
        Box(anchor.x + draw(offsets), anchor.y + draw(offsets), draw(pos_sizes), draw(pos_sizes))
        for _ in range(draw(st.integers(0, 3)))
    ]
    person_boxes = []
    for b in gt_boxes:
        kind = draw(st.sampled_from(["hit", "half-shifted ghost", "missed"]))
        if kind == "hit":
            person_boxes.append(Box(b.x + draw(st.integers(-2, 2)), b.y, b.w, b.h))
        elif kind == "half-shifted ghost":
            person_boxes.append(Box(b.x + b.w / 2, b.y + b.h / 2, b.w, b.h))
    person_boxes += draw(st.lists(pos_boxes, max_size=1))

    part_boxes = []
    for b in gt_boxes + person_boxes:
        for _ in range(draw(st.integers(0, 2))):
            fx, fy = draw(st.integers(0, int(b.w))), draw(st.integers(0, int(b.h)))
            part_boxes.append(Box(b.x + fx, b.y + fy, draw(part_sizes), draw(part_sizes)))
    for a, b in zip(gt_boxes, gt_boxes[1:]):
        if draw(st.booleans()):
            # Spans from the centre of one person to the centre of the next.
            (ax, ay), (bx, by) = (a.x + a.w / 2, a.y + a.h / 2), (b.x + b.w / 2, b.y + b.h / 2)
            part_boxes.append(Box(min(ax, bx), min(ay, by), max(abs(ax - bx), 1.0), max(abs(ay - by), 1.0)))
    part_boxes += draw(st.lists(pos_boxes, max_size=1))

    gt = [ann(b, image_id=image_id) for b in gt_boxes]
    gt += [ann(b, image_id=image_id, category=DetectionClass.HEAD)
           for b in part_boxes if draw(st.booleans())]
    return Scene(
        image_id=image_id,
        persons=tuple(det(b, image_id=image_id) for b in person_boxes),
        parts=tuple(part_det(b, image_id=image_id) for b in part_boxes),
        gt=tuple(gt),
    )


corpora = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*(crowded_scene(image_id) for image_id in range(1, n + 1)))
).map(list)


@settings(max_examples=150, deadline=None)
@given(scenes=corpora, tau=taus, alpha_fp=grid_alphas, alpha_fn=grid_alphas, ghost_all_classes=st.booleans())
def test_metrics_match_oracle_on_overlapping_scenes(scenes, tau, alpha_fp, alpha_fn, ghost_all_classes):
    partitions = [partition(s.persons, s.gt_persons(), tau) for s in scenes]
    alerts = [per_image_rule(s.persons, s.parts, alpha_fp, alpha_fn) for s in scenes]
    verdicts = [per_object_rule(s.persons, s.parts, alpha_fp, alpha_fn) for s in scenes]

    want_fp, want_fn, want_confusion, want_balances = oracle_metrics(
        scenes, tau, alpha_fp, alpha_fn, ghost_all_classes=ghost_all_classes
    )
    assert per_image_counts(scenes, partitions, alerts) == (want_fp, want_fn)
    confusion = object_confusion(scenes, partitions, verdicts, alpha_fn, ghost_all_classes=ghost_all_classes)
    assert confusion == want_confusion
    assert balances(confusion) == want_balances


def _assert_select_alphas_matches_oracle(scenes, tau, step):
    # Integer boxes: coverage often lands exactly on a grid value, the edge of the >= test.
    for matching in MatchingMode:
        partitions = [partition(s.persons, s.gt_persons(), tau, matching) for s in scenes]
        assert select_alphas(scenes, partitions, step) == oracle_alphas(scenes, tau, matching, step)


@settings(max_examples=100, deadline=None)
@given(scenes=corpora, tau=taus, step=st.sampled_from([0.25, 0.1, 0.05]))
def test_select_alphas_matches_brute_force_on_overlapping_scenes(scenes, tau, step):
    _assert_select_alphas_matches_oracle(scenes, tau, step)


@settings(max_examples=60, deadline=None)
@given(scenes=corpora, tau=taus, step=st.sampled_from([0.02, 0.01]))
def test_select_alphas_matches_rule_at_every_grid_point(scenes, tau, step):
    # Fine steps: most grid points fall between two flip indices, so the sweep must
    # score the change points alone and still agree with the rule at every point.
    _assert_select_alphas_matches_oracle(scenes, tau, step)
