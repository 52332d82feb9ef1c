"""Hungarian solver against exhaustive brute force; cost and loss oracles."""

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from sfhand import tensor as T
from sfhand.config import Config
from sfhand.errors import DimensionError, UsageError
from sfhand.hand import BBox, HandPose, HandState, HandType, Trajectory3D, rect_giou
from sfhand.matching import (
    Assignment,
    composite_loss,
    giou_pairs,
    hungarian,
    match_cost,
)
from sfhand.model import DecodedStep


def brute_force(cost: np.ndarray) -> Assignment:
    """Enumerate every assignment of min(n, m) pairs; smallest (total, pairs)."""
    n, m = cost.shape
    k = min(n, m)
    best = None
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            pairs = tuple(sorted(zip(rows, cols)))
            total = math.fsum(float(cost[q, g]) for q, g in pairs)
            key = (total, pairs)
            if best is None or key < best:
                best = key
    return Assignment(pairs=best[1], total=best[0])


class TestHungarian:
    def test_two_by_two(self):
        a = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total == pytest.approx(2.0)

    def test_zero_matrix_lexicographic(self):
        a = hungarian(np.zeros((3, 3)))
        assert a.pairs == ((0, 0), (1, 1), (2, 2))

    def test_rectangular_six_by_two(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cost = rng.uniform(0, 10, (6, 2))
            got = hungarian(cost)
            want = brute_force(cost)
            assert got.total == want.total
            assert got.pairs == want.pairs

    def test_random_square_and_rect(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            n, m = rng.integers(1, 6, 2)
            cost = rng.normal(0, 5, (n, m))
            got = hungarian(cost)
            want = brute_force(cost)
            assert got.total == want.total, (cost, got, want)
            assert got.pairs == want.pairs

    def test_integer_ties_pick_lexicographic(self):
        rng = np.random.default_rng(2)
        for _ in range(80):
            cost = rng.integers(0, 3, (4, 4)).astype(np.float64)
            got = hungarian(cost)
            want = brute_force(cost)
            assert got.total == want.total
            assert got.pairs == want.pairs

    def test_each_index_used_once(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(0, 1, (5, 7))
        a = hungarian(cost)
        qs = [q for q, _ in a.pairs]
        gs = [g for _, g in a.pairs]
        assert len(set(qs)) == len(qs) and len(set(gs)) == len(gs)
        assert len(a.pairs) == 5

    def test_rejects_bad_input(self):
        with pytest.raises(UsageError):
            hungarian(np.array([[np.nan, 1.0]]))
        with pytest.raises(DimensionError):
            hungarian(np.zeros((0, 2)))
        with pytest.raises(DimensionError):
            hungarian(np.zeros(3))


# ---------------------------------------------------------------------------
# cost and loss


def make_decoded(tape, type_logits, boxes, pose, traj):
    """One frame's (Q, ·) heads as a batch of one."""
    return DecodedStep(
        type_logits=tape.constant(type_logits[None]),
        boxes=tape.constant(boxes[None]),
        pose=tape.constant(pose[None]),
        traj=tape.constant(traj[None]),
    )


def gt_state(hand_type, cx=0.5, cy=0.5, w=0.2, h=0.2, theta=None, traj=(0, 0, 50)):
    return HandState(
        hand_type=hand_type,
        bbox=BBox(cx, cy, w, h),
        pose=HandPose(np.zeros(8) if theta is None else theta),
        traj=Trajectory3D(*traj),
        visible=True,
    )


def small_cfg():
    return Config(d=8, heads=2, pose_dim=8, num_queries=3, raster=16, patch=8,
                  text_len=4, memory_size=2)


class TestMatchCost:
    def test_perfect_prediction_costs_zero(self):
        cfg = small_cfg()
        tape = T.Tape("float64")
        gt = gt_state(HandType.LEFT)
        logits = np.array([[50.0, 0.0, 0.0], [0.0, 0.0, 50.0], [0.0, 0.0, 50.0]])
        boxes = np.tile(gt.bbox.as_array(), (3, 1))
        pose = np.zeros((3, 8))
        traj = np.tile(gt.traj.as_array(), (3, 1))
        cost, _ = match_cost(make_decoded(tape, logits, boxes, pose, traj), [[gt]], cfg)
        cost = cost[0]
        # the cost uses the loss's GIoU, whose 1e-9 division guard leaves
        # 1 - 0.04 / (0.04 + 1e-9) = 2.5e-8 on this 0.2 x 0.2 box
        want = cfg.lambda_box * (1 - 0.04 / (0.04 + 1e-9))
        assert cost[0, 0] == pytest.approx(want, abs=1e-12)
        assert np.all(cost >= 0)

    def test_costs_tied_at_tape_precision_go_to_the_lowest_query(self):
        # query 0's pose error exceeds query 1's by 2**-24 / 8: a float64
        # tape sees it, a float32 tape rounds 1 + 2**-24 to 1 and ties them
        cfg = small_cfg()
        gt = gt_state(HandType.LEFT)
        logits = np.zeros((2, 3))
        boxes = np.tile(gt.bbox.as_array(), (2, 1))
        pose = np.zeros((2, 8))
        pose[:, 0] = 1.0
        pose[0, 1] = 2.0**-24
        traj = np.tile(gt.traj.as_array(), (2, 1))
        costs = {}
        for dtype in ("float32", "float64"):
            decoded = make_decoded(T.Tape(dtype), logits, boxes, pose, traj)
            costs[dtype] = match_cost(decoded, [[gt]], cfg)[0][0]
        assert costs["float64"][1, 0] < costs["float64"][0, 0]
        assert hungarian(costs["float64"]).pairs == ((1, 0),)
        assert costs["float32"][0, 0] == costs["float32"][1, 0]
        assert hungarian(costs["float32"]).pairs == ((0, 0),)

    def test_hand_computed_single_entry(self):
        cfg = small_cfg()
        tape = T.Tape("float64")
        gt = gt_state(HandType.RIGHT, cx=0.5, cy=0.5, w=0.2, h=0.2, traj=(10, 0, 0))
        logits = np.array([[0.0, 1.0, 0.0]])
        boxes = np.array([[0.6, 0.5, 0.2, 0.2]])
        pose = np.full((1, 8), 0.25)
        traj = np.array([[0.0, 0.0, 0.0]])
        cost, _ = match_cost(
            make_decoded(tape, logits.repeat(1, 0), boxes, pose, traj), [[gt]], cfg
        )
        p = np.exp(logits[0]) / np.exp(logits[0]).sum()
        giou = rect_giou((0.5, 0.4, 0.7, 0.6), (0.4, 0.4, 0.6, 0.6))
        want = (
            cfg.lambda_type * (1 - p[1])
            + cfg.lambda_box * (0.1 + (1 - giou))  # box L1 is |0.6 - 0.5|
            + cfg.lambda_pose * 0.25
            + cfg.lambda_traj * 10.0 / 100.0
        )
        assert cost[0, 0, 0] == pytest.approx(want, abs=1e-6)

    def test_cost_nonnegative_random(self):
        cfg = small_cfg()
        rng = np.random.default_rng(4)
        tape = T.Tape("float64")
        for _ in range(20):
            decoded = make_decoded(
                tape,
                rng.normal(0, 3, (3, 3)),
                rng.uniform(0.05, 0.95, (3, 4)) * [1, 1, 0.5, 0.5],
                rng.normal(0, 1, (3, 8)),
                rng.uniform(-80, 80, (3, 3)),
            )
            gts = [gt_state(HandType.LEFT), gt_state(HandType.RIGHT, cx=0.3)]
            cost, _ = match_cost(decoded, [gts], cfg)
            assert np.all(cost >= 0)


class TestGiouPairs:
    def test_matches_float_oracle(self):
        rng = np.random.default_rng(5)
        tape = T.Tape("float64")
        pred = rng.uniform(0.1, 0.9, (40, 4)) * [1, 1, 0.6, 0.6] + [0, 0, 0.05, 0.05]
        gt = rng.uniform(0.1, 0.9, (40, 4)) * [1, 1, 0.6, 0.6] + [0, 0, 0.05, 0.05]
        got = giou_pairs(tape.constant(pred), gt).value

        def corners(b):
            return (b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2)

        for i in range(40):
            assert got[i] == pytest.approx(rect_giou(corners(pred[i]), corners(gt[i])), abs=1e-6)


class TestCompositeLoss:
    def test_perfect_prediction_near_zero(self):
        cfg = small_cfg()
        tape = T.Tape("float64")
        gts = [gt_state(HandType.LEFT, cx=0.3), gt_state(HandType.RIGHT, cx=0.7)]
        logits = np.full((3, 3), -50.0)
        logits[0, 0] = 50.0  # query 0 -> left
        logits[1, 1] = 50.0  # query 1 -> right
        logits[2, 2] = 50.0  # query 2 -> background
        boxes = np.stack([gts[0].bbox.as_array(), gts[1].bbox.as_array(), [0.5, 0.5, 0.1, 0.1]])
        pose = np.zeros((3, 8))
        traj = np.stack([gts[0].traj.as_array(), gts[1].traj.as_array(), [0, 0, 0]])
        loss, breakdown, (assign,) = composite_loss(
            make_decoded(tape, logits, boxes, pose, traj), [gts], cfg
        )
        assert loss.item() == pytest.approx(0.0, abs=1e-6)
        assert set(assign.pairs) == {(0, 0), (1, 1)}

    def test_zero_gt_frame_has_type_term_only(self):
        cfg = small_cfg()
        tape = T.Tape("float64")
        rng = np.random.default_rng(6)
        decoded = make_decoded(
            tape, rng.normal(0, 1, (3, 3)), np.full((3, 4), 0.5), np.zeros((3, 8)),
            np.zeros((3, 3)),
        )
        loss, breakdown, (assign,) = composite_loss(decoded, [[]], cfg)
        assert assign.pairs == ()
        assert breakdown["box"] == breakdown["pose"] == breakdown["traj"] == 0.0
        assert loss.item() == pytest.approx(breakdown["type"], abs=1e-9)

    def test_matches_straight_line_recomputation(self):
        cfg = small_cfg()
        rng = np.random.default_rng(7)
        tape = T.Tape("float64")
        logits = rng.normal(0, 2, (3, 3))
        boxes = np.clip(rng.uniform(0.2, 0.8, (3, 4)), 0.05, 0.95)
        pose = rng.normal(0, 1, (3, 8))
        traj = rng.uniform(-60, 60, (3, 3))
        gts = [
            gt_state(HandType.LEFT, cx=0.4, theta=rng.normal(0, 1, 8), traj=(5, -8, 40)),
            gt_state(HandType.RIGHT, cx=0.6, theta=rng.normal(0, 1, 8), traj=(-15, 2, 60)),
        ]
        decoded = make_decoded(tape, logits, boxes, pose, traj)
        loss, breakdown, (assign,) = composite_loss(decoded, [gts], cfg)

        # independent step-by-step recomputation
        probs = np.exp(logits - logits.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        row_to_gt = dict(assign.pairs)
        type_nll = []
        for q in range(3):
            if q in row_to_gt:
                w, target = 1.0, gts[row_to_gt[q]].hand_type.value
            else:
                w, target = cfg.background_weight, HandType.BACKGROUND.value
            type_nll.append(-w * np.log(probs[q, target]))
        want = cfg.lambda_type * np.mean(type_nll)

        def corners(b):
            return (b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2)

        box_terms, pose_terms, traj_terms = [], [], []
        for q, g in assign.pairs:
            gb = gts[g].bbox.as_array()
            box_terms.append(
                np.abs(boxes[q] - gb).sum() + 1 - rect_giou(corners(boxes[q]), corners(gb))
            )
            pose_terms.append(np.abs(pose[q] - gts[g].pose.theta).mean())
            traj_terms.append(np.abs(traj[q] - gts[g].traj.as_array()).sum() / 100)
        want += cfg.lambda_box * np.mean(box_terms)
        want += cfg.lambda_pose * np.mean(pose_terms)
        want += cfg.lambda_traj * np.mean(traj_terms)
        assert loss.item() == pytest.approx(want, abs=1e-6)

    def test_gt_order_invariance(self):
        cfg = small_cfg()
        rng = np.random.default_rng(8)
        gts = [
            gt_state(HandType.LEFT, cx=0.35, traj=(3, 4, 30)),
            gt_state(HandType.RIGHT, cx=0.65, traj=(-3, 4, 70)),
        ]
        tape = T.Tape("float64")
        decoded = make_decoded(
            tape, rng.normal(0, 2, (3, 3)), rng.uniform(0.2, 0.7, (3, 4)),
            rng.normal(0, 1, (3, 8)), rng.uniform(-50, 50, (3, 3)),
        )
        l1, _, _ = composite_loss(decoded, [gts], cfg)
        l2, _, _ = composite_loss(decoded, [list(reversed(gts))], cfg)
        assert l1.item() == pytest.approx(l2.item(), abs=1e-12)

    def test_box_term_isolation(self):
        # Perturb only one matched box; type/pose/traj terms must not move and
        # the loss delta must equal lambda_box times the box-term change.
        cfg = small_cfg()
        tape = T.Tape("float64")
        gt = gt_state(HandType.LEFT, cx=0.5, cy=0.5, w=0.3, h=0.3)
        logits = np.array([[50.0, 0, 0], [0, 0, 50.0], [0, 0, 50.0]])
        pose = np.zeros((3, 8))
        traj = np.zeros((3, 3))
        base_boxes = np.tile(gt.bbox.as_array(), (3, 1))
        shifted = base_boxes.copy()
        shifted[0, 0] += 0.05
        l_base, b_base, _ = composite_loss(
            make_decoded(tape, logits, base_boxes, pose, traj), [[gt]], cfg
        )
        l_shift, b_shift, _ = composite_loss(
            make_decoded(tape, logits, shifted, pose, traj), [[gt]], cfg
        )

        def corners(b):
            return (b[0] - b[2] / 2, b[1] - b[3] / 2, b[0] + b[2] / 2, b[1] + b[3] / 2)

        delta_box = (
            np.abs(shifted[0] - base_boxes[0]).sum()
            + (1 - rect_giou(corners(shifted[0]), corners(gt.bbox.as_array())))
        )  # base box term is exactly 0
        assert b_shift["type"] == pytest.approx(b_base["type"], abs=1e-9)
        assert b_shift["pose"] == pytest.approx(b_base["pose"], abs=1e-9)
        assert b_shift["traj"] == pytest.approx(b_base["traj"], abs=1e-9)
        assert l_shift.item() - l_base.item() == pytest.approx(
            cfg.lambda_box * delta_box / 1, abs=1e-6
        )

    def test_zero_lambda_reports_zero(self):
        cfg = small_cfg().replace(lambda_traj=0.0)
        tape = T.Tape("float64")
        rng = np.random.default_rng(9)
        decoded = make_decoded(
            tape, rng.normal(0, 1, (3, 3)), rng.uniform(0.3, 0.7, (3, 4)),
            rng.normal(0, 1, (3, 8)), rng.uniform(-50, 50, (3, 3)),
        )
        _, breakdown, _ = composite_loss(decoded, [[gt_state(HandType.LEFT)]], cfg)
        assert breakdown["traj"] == 0.0


class TestBatchedLoss:
    """One loss graph over a batch of frames with 0, 1 or 2 hands each."""

    @staticmethod
    def heads(rng, b_n, q_n=3):
        return {"type_logits": rng.normal(0, 2, (b_n, q_n, 3)),
                "boxes": rng.uniform(0.2, 0.8, (b_n, q_n, 4)),
                "pose": rng.normal(0, 1, (b_n, q_n, 8)),
                "traj": rng.uniform(-60, 60, (b_n, q_n, 3))}

    def test_mixed_batch_equals_mean_of_single_frames(self):
        cfg = small_cfg()
        rng = np.random.default_rng(10)

        def hand(hand_type, cx):
            return gt_state(hand_type, cx=cx, theta=rng.normal(0, 1, 8),
                            traj=tuple(rng.uniform(-40, 40, 3)))

        left, right = HandType.LEFT, HandType.RIGHT
        gts = [[], [hand(left, 0.4)], [hand(right, 0.7), hand(left, 0.3)],
               [], [hand(right, 0.5)], [hand(left, 0.2), hand(right, 0.6)]]
        values = self.heads(rng, len(gts))

        def loss_at(heads, frames):
            tape = T.Tape("float64")
            decoded = DecodedStep(**{k: tape.parameter(k, v) for k, v in heads.items()})
            loss, breakdown, assigns = composite_loss(decoded, frames, cfg)
            return breakdown, assigns, tape.backward(loss)

        breakdown, assigns, grads = loss_at(values, gts)
        singles = [loss_at({k: v[b:b + 1] for k, v in values.items()}, [frame])
                   for b, frame in enumerate(gts)]
        for term in ("total", "type", "box", "pose", "traj"):
            want = np.mean([s[0][term] for s in singles])
            assert breakdown[term] == pytest.approx(want, rel=1e-12, abs=1e-15), term
        assert assigns == [s[1][0] for s in singles]
        assert [len(a.pairs) for a in assigns] == [0, 1, 2, 0, 1, 2]
        for name in values:
            want = np.concatenate([s[2][name] for s in singles]) / len(gts)
            npt.assert_allclose(grads[name], want, rtol=0, atol=1e-12 * np.abs(want).max(),
                                err_msg=name)

    def test_loss_ops_do_not_grow_with_the_batch(self):
        cfg = small_cfg()
        rng = np.random.default_rng(11)
        left, right = gt_state(HandType.LEFT, cx=0.3), gt_state(HandType.RIGHT, cx=0.7)
        ops = []
        for gts in ([[left]], [[], [right], [left, right], [], [left], [right, left], [], [left]]):
            tape = T.Tape("float64")
            decoded = DecodedStep(**{k: tape.constant(v)
                                     for k, v in self.heads(rng, len(gts)).items()})
            before = tape.ops
            composite_loss(decoded, gts, cfg)
            ops.append(tape.ops - before)
        assert ops[0] == ops[1] > 0
