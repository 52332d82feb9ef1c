"""Metric oracles: frozen arithmetic cases plus brute-force recomputation.

Displacement and recall cases go through ``MetricAccumulator``, the one
scorer the evaluation uses."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from sfhand.errors import DimensionError, NumericalError, UsageError
from sfhand.hand import (
    BBox,
    HandPose,
    HandState,
    HandType,
    JointSet,
    Trajectory3D,
    synthetic_joints,
)
from sfhand.metrics import MetricAccumulator, jpe, pa_jpe, procrustes_align
from sfhand.matching import MAX_CANDIDATES, hungarian


def random_rotation(rng):
    # QR of a Gaussian matrix, det-corrected to a proper rotation
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def make_state(ht, cx, cy=0.5, w=0.2, h=0.2, traj=(0.0, 0.0, 50.0), visible=True):
    return HandState(ht, BBox(cx, cy, w, h), HandPose(np.zeros(8)), Trajectory3D(*traj), visible)


def score(pred_frames, gt_frames):
    acc = MetricAccumulator()
    acc.add_clip(pred_frames, gt_frames)
    return acc.report()


def score_track(pred_traj, gt_traj):
    """One left hand per frame; frame t is predicted at pred_traj[t]."""
    return score([[make_state(HandType.LEFT, 0.5, traj=tuple(p))] for p in pred_traj],
                 [[make_state(HandType.LEFT, 0.5, traj=tuple(g))] for g in gt_traj])


class TestDisplacement:
    def test_exact_match_zero(self):
        g = np.arange(12.0).reshape(4, 3)
        rep = score_track(g, g)
        assert rep.ade_cm == 0.0
        assert rep.fde_cm == 0.0

    def test_constant_offset_345(self):
        g = np.zeros((5, 3))
        rep = score_track(g + np.array([3.0, 4.0, 0.0]), g)
        assert rep.ade_cm == pytest.approx(5.0)
        assert rep.fde_cm == pytest.approx(5.0)

    def test_mixed_offsets(self):
        g = np.zeros((2, 3))
        rep = score_track(np.array([[1.0, 0, 0], [0, 0, 3.0]]), g)
        assert rep.ade_cm == pytest.approx(2.0)  # mean of 1 and 3
        assert rep.fde_cm == pytest.approx(3.0)

    def test_single_frame_fde_equals_ade(self):
        rep = score_track(np.array([[4.0, 6.0, 3.0]]), np.array([[1.0, 2.0, 3.0]]))
        assert rep.fde_cm == rep.ade_cm == pytest.approx(5.0)

    def test_accepts_trajectory_objects(self):
        g = [Trajectory3D(0, 0, 0), Trajectory3D(1, 0, 0)]
        p = [Trajectory3D(0, 0, 1), Trajectory3D(1, 0, 1)]
        rep = score_track([t.as_array() for t in p], [t.as_array() for t in g])
        assert rep.ade_cm == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            score_track(np.zeros((2, 3)), np.zeros((3, 3)))


class TestJPE:
    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        g = JointSet(rng.normal(0, 5, (21, 3)))
        p = JointSet(g.joints + np.array([10.0, -4.0, 2.0]))
        assert jpe(p, g) == pytest.approx(0.0, abs=1e-12)

    def test_single_displaced_joint(self):
        g = JointSet(np.zeros((21, 3)) + np.arange(21)[:, None])
        moved = g.joints.copy()
        moved[5] += np.array([0.0, 2.1, 0.0])
        assert jpe(JointSet(moved), g) == pytest.approx(2.1 / 21)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = JointSet(rng.normal(0, 4, (21, 3)))
            b = JointSet(rng.normal(0, 4, (21, 3)))
            manual = np.mean(
                [
                    np.sqrt(
                        sum(
                            ((a.joints[j, k] - a.joints[0, k]) - (b.joints[j, k] - b.joints[0, k])) ** 2
                            for k in range(3)
                        )
                    )
                    for j in range(21)
                ]
            )
            assert jpe(a, b) == pytest.approx(manual, abs=1e-9)


class TestProcrustes:
    def test_rigid_motion_residual_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = rng.normal(0, 5, (21, 3))
            r = random_rotation(rng)
            t = rng.normal(0, 10, 3)
            p = g @ r.T + t
            aligned = procrustes_align(p, g)
            assert np.abs(aligned - g).max() <= 1e-9

    def test_degenerate_coincident_points(self):
        p = np.tile([1.0, 2.0, 3.0], (21, 1))
        g = np.random.default_rng(4).normal(0, 2, (21, 3))
        aligned = procrustes_align(p, g)
        npt.assert_allclose(aligned, np.tile(g.mean(axis=0), (21, 1)), atol=1e-12)

    def test_residual_invariant_to_pre_rigid_motion(self):
        rng = np.random.default_rng(5)
        p = rng.normal(0, 3, (21, 3))
        g = rng.normal(0, 3, (21, 3))
        base = np.linalg.norm(procrustes_align(p, g) - g)
        for _ in range(10):
            moved = p @ random_rotation(rng).T + rng.normal(0, 5, 3)
            res = np.linalg.norm(procrustes_align(moved, g) - g)
            assert res == pytest.approx(base, abs=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_numerical_error(self, bad):
        g = np.random.default_rng(7).normal(0, 2, (21, 3))
        p = g.copy()
        p[3, 1] = bad
        with pytest.raises(NumericalError):
            procrustes_align(p, g)
        with pytest.raises(NumericalError):
            procrustes_align(g, p)

    def test_mirror_image_gets_rotation_not_reflection(self):
        g = np.random.default_rng(8).normal(0, 3, (21, 3))
        p = g * np.array([1.0, 1.0, -1.0])
        aligned = procrustes_align(p, g)
        p0, a0 = p - p.mean(axis=0), aligned - aligned.mean(axis=0)
        r_t, *_ = np.linalg.lstsq(p0, a0, rcond=None)
        npt.assert_allclose(r_t @ r_t.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r_t) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(aligned - g) > 1e-3


class TestPAJPE:
    def test_rotated_translated_copy_zero(self):
        rng = np.random.default_rng(6)
        g = JointSet(rng.normal(0, 4, (21, 3)))
        p = JointSet(g.joints @ random_rotation(rng).T + np.array([5.0, 1.0, -2.0]))
        assert pa_jpe(p, g) == pytest.approx(0.0, abs=1e-9)
        assert pa_jpe(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_leq_jpe_empirically(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            base = rng.normal(0, 4, (21, 3))
            noisy = base + rng.normal(0, rng.uniform(0.01, 1.0), (21, 3))
            a, b = JointSet(noisy), JointSet(base)
            assert pa_jpe(a, b) <= jpe(a, b) + 1e-9


def recall(pred_frames, gt_frames):
    return score(pred_frames, gt_frames).recall_at_05


class TestRecall:
    def test_perfect(self):
        gts = [[make_state(HandType.LEFT, 0.3), make_state(HandType.RIGHT, 0.7)]]
        assert recall(gts, gts) == 1.0

    def test_disjoint_boxes(self):
        gts = [[make_state(HandType.LEFT, 0.2, w=0.1, h=0.1)]]
        preds = [[make_state(HandType.LEFT, 0.8, w=0.1, h=0.1)]]
        assert recall(preds, gts) == 0.0

    def test_wrong_type_not_recalled(self):
        gts = [[make_state(HandType.LEFT, 0.5)]]
        preds = [[make_state(HandType.RIGHT, 0.5)]]
        assert recall(preds, gts) == 0.0

    def test_no_gt_is_nan(self):
        rep = score([[make_state(HandType.LEFT, 0.5)]], [[]])
        assert math.isnan(rep.recall_at_05) and math.isnan(rep.coverage)

    def test_threshold_boundary(self):
        # Shifted box with IoU just above/below 0.5
        gt = make_state(HandType.LEFT, 0.5, w=0.4, h=0.4)
        near = make_state(HandType.LEFT, 0.55, w=0.4, h=0.4)  # IoU ~ 0.78
        far = make_state(HandType.LEFT, 0.5, w=0.1, h=0.1)  # IoU ~ 0.0625
        assert recall([[near]], [[gt]]) == 1.0
        assert recall([[far]], [[gt]]) == 0.0

    def test_matching_above_enumeration_bound_raises(self):
        # 317 x 2 has 317 * 316 = 100 172 assignments, just above the cap
        assert 317 * 316 > MAX_CANDIDATES >= 316 * 315
        with pytest.raises(UsageError):
            hungarian(np.zeros((317, 2)))
        with pytest.raises(UsageError):
            hungarian(np.zeros((2, 317)))
        with pytest.raises(UsageError):
            hungarian(np.zeros((9, 9)))  # 9! = 362 880


class TestAccumulator:
    def test_skips_missing_hands_and_counts(self):
        gt1 = [make_state(HandType.LEFT, 0.5, traj=(0, 0, 10))]
        gt2 = [make_state(HandType.LEFT, 0.5, traj=(0, 0, 20)),
               make_state(HandType.RIGHT, 0.4, traj=(0, 0, 30))]
        pred1 = [make_state(HandType.LEFT, 0.5, traj=(3, 4, 10))]
        pred2 = [make_state(HandType.LEFT, 0.5, traj=(0, 0, 21))]  # right missing
        acc = MetricAccumulator()
        acc.add_clip([pred1, pred2], [gt1, gt2])
        rep = acc.report()
        assert rep.hands == 2  # (L, frame1), (L, frame2)
        assert rep.ade_cm == pytest.approx((5.0 + 1.0) / 2)
        assert rep.fde_cm == pytest.approx(1.0)  # last evaluable left frame
        assert rep.frames == 2
        assert rep.coverage == pytest.approx(2 / 3)  # 2 of 3 ground-truth hands scored
        assert rep.recall_at_05 == pytest.approx(2 / 3)

    def test_uses_stored_joints_when_present(self):
        gt = make_state(HandType.LEFT, 0.5, traj=(0, 0, 10))
        pred = make_state(HandType.LEFT, 0.5, traj=(0, 0, 10))
        stored = JointSet(synthetic_joints(gt.pose, gt.traj).joints + 1.0)
        acc = MetricAccumulator()
        acc.add_clip([[pred]], [[gt]], [{HandType.LEFT: stored}])
        # stored joints differ from the rig output by a translation only
        assert acc.report().jpe_cm == pytest.approx(0.0, abs=1e-9)

    def test_empty_pool_reports_nan_not_zero(self):
        # predictions that miss every ground-truth hand pool nothing
        gt = [[make_state(HandType.LEFT, 0.5)], [make_state(HandType.RIGHT, 0.5)]]
        rep = score([[], [make_state(HandType.LEFT, 0.5)]], gt)
        assert rep.hands == 0 and rep.frames == 2
        for v in (rep.ade_cm, rep.fde_cm, rep.jpe_cm, rep.pa_jpe_cm):
            assert math.isnan(v)
        assert rep.recall_at_05 == 0.0 and rep.coverage == 0.0
        empty = MetricAccumulator().report()
        assert all(math.isnan(v) for k, v in empty.to_dict().items()
                   if k not in ("frames", "hands"))
