import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmon.geometry import Box, iou
from partmon.oracle import oracle_greedy_partition, oracle_partition
from partmon.partition import MatchingMode, matches, partition

from conftest import ann, det, pos_boxes


def test_clear_match_is_tp_and_not_fn():
    gt = [ann(Box(0, 0, 10, 10))]
    d = det(Box(0, 0, 10, 6))  # IoU 0.6
    assert iou(d.box, gt[0].box) == pytest.approx(0.6)
    result = partition([d], gt, tau=0.5)
    assert result.tp_gt == (d,)
    assert result.fp_gt == ()
    assert result.fn_gt == ()


def test_iou_exactly_tau_is_fp_and_fn():
    gt = [ann(Box(0, 0, 10, 10))]
    d = det(Box(0, 0, 10, 5))  # IoU exactly 0.5
    assert iou(d.box, gt[0].box) == 0.5
    result = partition([d], gt, tau=0.5)
    assert result.tp_gt == ()
    assert result.fp_gt == (d,)
    assert result.fn_gt == tuple(gt)


def test_existential_matching_validates_duplicates():
    gt = [ann(Box(0, 0, 10, 10))]
    d1 = det(Box(0, 0, 10, 9), score=0.9, det_id=0)
    d2 = det(Box(0, 1, 10, 9), score=0.8, det_id=1)
    result = partition([d1, d2], gt, tau=0.5)
    assert result.tp_gt == (d1, d2)
    assert result.fn_gt == ()


def test_greedy_matching_consumes_each_gt_once():
    gt = [ann(Box(0, 0, 10, 10))]
    d1 = det(Box(0, 0, 10, 9), score=0.9, det_id=0)
    d2 = det(Box(0, 1, 10, 9), score=0.8, det_id=1)
    result = partition([d1, d2], gt, tau=0.5, matching=MatchingMode.GREEDY)
    assert result.tp_gt == (d1,)
    assert result.fp_gt == (d2,)
    assert result.fn_gt == ()


def test_greedy_prefers_highest_iou_for_equal_scores():
    gts = [ann(Box(0, 0, 10, 10), ann_id=1), ann(Box(100, 0, 10, 10), ann_id=2)]
    near = det(Box(100, 0, 10, 9), score=0.9, det_id=0)
    result = partition([near], gts, tau=0.5, matching=MatchingMode.GREEDY)
    assert result.tp_gt == (near,)
    assert [g.ann_id for g in result.fn_gt] == [1]


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 2.0])
def test_partition_rejects_tau_outside_open_interval(tau):
    with pytest.raises(ValueError):
        partition([], [], tau)


scene_dets = st.lists(pos_boxes, max_size=8).map(
    lambda bs: [det(b, det_id=i, score=0.5) for i, b in enumerate(bs)]
)
scene_gts = st.lists(pos_boxes, max_size=8).map(
    lambda bs: [ann(b, ann_id=i) for i, b in enumerate(bs)]
)
taus = st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9])


@given(scene_dets, scene_gts, taus)
@settings(max_examples=200)
def test_partition_matches_brute_force_oracle(dets, gts, tau):
    got = partition(dets, gts, tau)
    want = oracle_partition(dets, gts, tau)
    assert got.tp_gt == want.tp_gt
    assert got.fp_gt == want.fp_gt
    assert got.fn_gt == want.fn_gt


@given(scene_dets, scene_gts, taus)
@settings(max_examples=200)
def test_partition_is_exhaustive_and_dual(dets, gts, tau):
    result = partition(dets, gts, tau)
    assert len(result.tp_gt) + len(result.fp_gt) == len(dets)
    assert set(result.fn_gt) <= set(gts)
    if not result.tp_gt and gts:
        # No detection was validated, so every GT must be missed.
        assert result.fn_gt == tuple(gts)


@given(scene_dets, scene_gts)
@settings(max_examples=100)
def test_partition_monotone_in_tau(dets, gts):
    grid = [i / 11 for i in range(1, 11)]
    previous = None
    for tau in grid:
        result = partition(dets, gts, tau)
        tp_ids = {id(d) for d in result.tp_gt}
        fn_ids = {id(g) for g in result.fn_gt}
        if previous is not None:
            prev_tp, prev_fn = previous
            assert tp_ids <= prev_tp
            assert fn_ids >= prev_fn
        previous = (tp_ids, fn_ids)


# Quarter-pixel anchors keep the sums and products of the built cases exact,
# so IoUs built to tie or to sit on tau do so bit for bit.
quarters = st.integers(-160, 160).map(lambda k: k / 4)
quarter_sizes = st.integers(16, 160).map(lambda k: k / 4)


@st.composite
def matching_case(draw):
    """Real-valued persons around each ground-truth box, with the cases that decide matching.

    Per ground-truth box g: detections jittered by real amounts; one whose IoU
    with g is exactly tau (half or a quarter of g, so the union is g); one
    sharing only g's right or bottom edge; one clear of g; and one halfway
    between g and a copy of g shifted right, overlapping both with exactly
    equal IoU above tau. Scores are drawn from three values, so ties are common.
    """
    tau = draw(st.sampled_from([0.25, 0.5]))
    gts, boxes = [], []
    for _ in range(draw(st.integers(1, 3))):
        g = Box(draw(quarters), draw(quarters), draw(quarter_sizes), draw(quarter_sizes))
        gts.append(g)
        for kind in draw(st.lists(st.sampled_from(["jittered", "at tau", "edge", "clear", "between"]), max_size=3)):
            if kind == "jittered":
                boxes.append(Box(g.x + draw(st.floats(-3.0, 3.0)), g.y + draw(st.floats(-3.0, 3.0)),
                                 g.w * draw(st.floats(0.6, 1.4)), g.h * draw(st.floats(0.6, 1.4))))
            elif kind == "at tau":
                boxes.append(Box(g.x, g.y, g.w, g.h * tau))
            elif kind == "edge":
                boxes.append(draw(st.sampled_from([Box(g.x + g.w, g.y, g.w, g.h), Box(g.x, g.y + g.h, g.w, g.h)])))
            elif kind == "clear":
                boxes.append(Box(g.x + g.w + draw(st.floats(0.5, 20.0)), g.y, g.w, g.h))
            else:  # IoU (w - d) / (w + d) with each box, above 0.5 for d <= w / 4
                d = g.w / draw(st.sampled_from([4, 8]))
                gts.append(Box(g.x + 2 * d, g.y, g.w, g.h))
                boxes.append(Box(g.x + d, g.y, g.w, g.h))
    boxes = draw(st.permutations(boxes))
    dets = [det(b, det_id=i, score=draw(st.sampled_from([0.3, 0.6, 0.9]))) for i, b in enumerate(boxes)]
    return dets, [ann(b, ann_id=j) for j, b in enumerate(gts)], tau


@settings(max_examples=300, deadline=None)
@given(matching_case())
def test_matches_and_partition_agree_with_the_oracles(case):
    dets, gts, tau = case
    assert matches(dets, gts, tau) == [
        (i, j) for i, d in enumerate(dets) for j, g in enumerate(gts) if iou(d.box, g.box) > tau
    ]
    assert partition(dets, gts, tau) == oracle_partition(dets, gts, tau)

    pairs = matches(dets, gts, tau, MatchingMode.GREEDY)
    assert partition(dets, gts, tau, MatchingMode.GREEDY) == oracle_greedy_partition(dets, gts, tau)
    # Each pair is the consumer of its ground-truth box: the detections kept at
    # any score cut are a prefix of the visiting order, so the oracle run on
    # them alone misses exactly the boxes that no kept detection consumed.
    for cut in {d.score for d in dets}:
        kept = [d for d in dets if d.score >= cut]
        consumed = {j for i, j in pairs if dets[i].score >= cut}
        assert oracle_greedy_partition(kept, gts, tau).fn_gt == tuple(g for j, g in enumerate(gts) if j not in consumed)
