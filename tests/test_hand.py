"""Box geometry and synthetic rig tests."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfhand.errors import UsageError
from sfhand.hand import (
    BBox,
    HandPose,
    JointSet,
    Trajectory3D,
    bbox_iou,
    rect_giou,
    rect_iou,
    synthetic_joints,
)


def corner_giou(a, b):
    """GIoU of two boxes through their clamped corners."""
    return rect_giou(a.corners(), b.corners())


boxes = st.builds(
    BBox,
    cx=st.floats(0.05, 0.95),
    cy=st.floats(0.05, 0.95),
    w=st.floats(0.01, 0.9),
    h=st.floats(0.01, 0.9),
)


class TestIoU:
    def test_identical(self):
        b = BBox(0.5, 0.5, 0.2, 0.3)
        assert bbox_iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bbox_iou(BBox(0.1, 0.1, 0.1, 0.1), BBox(0.9, 0.9, 0.1, 0.1)) == 0.0

    def test_known_overlap(self):
        # corners (0,0,2,2) vs (1,1,3,3): inter 1, union 7
        assert rect_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_degenerate_box(self):
        assert rect_iou((0, 0, 0, 1), (0, 0, 1, 1)) == 0.0


class TestGIoU:
    def test_identical_gives_one(self):
        b = BBox(0.5, 0.5, 0.4, 0.4)
        assert corner_giou(b, b) == pytest.approx(1.0)

    def test_separated_unit_boxes(self):
        # corners (0,0,1,1) vs (9,0,10,1): IoU 0, union 2, enclose 10
        assert rect_giou((0, 0, 1, 1), (9, 0, 10, 1)) == pytest.approx(-0.8)

    def test_partial_overlap(self):
        assert rect_giou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7 - 2 / 9)

    @settings(max_examples=80, deadline=None)
    @given(boxes, boxes)
    def test_symmetry_and_bound(self, a, b):
        assert corner_giou(a, b) == pytest.approx(corner_giou(b, a), abs=1e-12)
        assert bbox_iou(a, b) == pytest.approx(bbox_iou(b, a), abs=1e-12)
        assert corner_giou(a, b) <= bbox_iou(a, b) + 1e-12
        assert -1.0 < corner_giou(a, b) <= 1.0

    def test_giou_equals_iou_when_enclose_is_union(self):
        # Two stacked boxes whose union fills the enclosing rectangle.
        a = BBox.from_corners(0.0, 0.0, 1.0, 0.5)
        b = BBox.from_corners(0.0, 0.5, 1.0, 1.0)
        assert corner_giou(a, b) == pytest.approx(bbox_iou(a, b))


class TestBBoxType:
    def test_corner_roundtrip(self):
        b = BBox(0.4, 0.6, 0.2, 0.1)
        r = BBox.from_corners(*b.corners())
        for f in ("cx", "cy", "w", "h"):
            assert getattr(r, f) == pytest.approx(getattr(b, f), abs=1e-7)

    def test_rejects_bad_fields(self):
        with pytest.raises(UsageError):
            BBox(1.5, 0.5, 0.1, 0.1)
        with pytest.raises(UsageError):
            BBox(0.5, 0.5, 0.0, 0.1)

    def test_corners_clamped(self):
        x1, y1, x2, y2 = BBox(0.05, 0.5, 0.2, 0.2).corners()
        assert x1 == 0.0 and 0 <= y1 <= 1 and x2 <= 1 and y2 <= 1


class TestSyntheticJoints:
    def test_zero_pose_is_rest_plus_traj(self):
        traj = Trajectory3D(1.0, -2.0, 3.0)
        js = synthetic_joints(HandPose(np.zeros(48)), traj)
        npt.assert_allclose(js.wrist, [1.0, -2.0, 3.0], atol=1e-12)
        js0 = synthetic_joints(HandPose(np.zeros(48)), Trajectory3D(0, 0, 0))
        npt.assert_allclose(js.joints, js0.joints + np.array([1.0, -2.0, 3.0]), atol=1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        theta = HandPose(rng.uniform(-np.pi, np.pi, 48))
        a = synthetic_joints(theta, Trajectory3D(0, 0, 0))
        b = synthetic_joints(theta, Trajectory3D(1, 2, 3))
        npt.assert_allclose(b.joints, a.joints + np.array([1, 2, 3.0]), atol=1e-12)

    def test_deterministic(self):
        theta = HandPose(np.linspace(-1, 1, 48))
        a = synthetic_joints(theta, Trajectory3D(5, 5, 5))
        b = synthetic_joints(theta, Trajectory3D(5, 5, 5))
        npt.assert_array_equal(a.joints, b.joints)

    def test_pose_contribution_bounded(self):
        rng = np.random.default_rng(1)
        rest = synthetic_joints(HandPose(np.zeros(48)), Trajectory3D(0, 0, 0)).joints
        for _ in range(20):
            theta = HandPose(rng.uniform(-np.pi, np.pi, 48))
            js = synthetic_joints(theta, Trajectory3D(0, 0, 0)).joints
            assert np.abs(js - rest).max() <= 2.0 + 1e-9

    def test_wrist_identity_exact(self):
        theta = HandPose(np.full(48, np.pi))
        js = synthetic_joints(theta, Trajectory3D(-7.5, 0.25, 99.0))
        npt.assert_array_equal(js.wrist, np.array([-7.5, 0.25, 99.0]))

    def test_affine_in_theta(self):
        rng = np.random.default_rng(2)
        t0, t1 = rng.uniform(-1, 1, 48), rng.uniform(-1, 1, 48)
        tr = Trajectory3D(0, 0, 0)
        mid = synthetic_joints(HandPose((t0 + t1) / 2), tr).joints
        a = synthetic_joints(HandPose(t0), tr).joints
        b = synthetic_joints(HandPose(t1), tr).joints
        npt.assert_allclose(mid, (a + b) / 2, atol=1e-12)


def test_jointset_validation():
    with pytest.raises(UsageError):
        JointSet(np.zeros((20, 3)))
    with pytest.raises(UsageError):
        Trajectory3D(20000.0, 0.0, 0.0)
