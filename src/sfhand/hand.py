"""Hand-state domain types, 2D box geometry, and the synthetic joint rig.

Boxes are stored in normalized center form (cx, cy, w, h) and converted to
corners for IoU/GIoU. The joint rig is a fixed affine map from pose
parameters to 21 3D joints standing in for a licensed parametric hand
model; joint 0 (the wrist) always equals the trajectory point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .rng import Xorshift64Star

NUM_JOINTS = 21
RIG_SEED = 3735928559  # fixed rig identity; changing it changes every JointSet
CM_PER_M = 100.0  # trajectories are centimeters; models see them in meters


class HandType(enum.Enum):
    LEFT = 0
    RIGHT = 1
    BACKGROUND = 2  # matching target for unmatched queries, never in GT


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, normalized center form, all fields in [0, 1]."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0):
            raise UsageError(f"box center out of range: ({self.cx}, {self.cy})")
        if not (0.0 < self.w <= 1.0 and 0.0 < self.h <= 1.0):
            raise UsageError(f"box size out of range: ({self.w}, {self.h})")

    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2), clamped into the unit square."""
        x1 = min(max(self.cx - self.w / 2.0, 0.0), 1.0)
        y1 = min(max(self.cy - self.h / 2.0, 0.0), 1.0)
        x2 = min(max(self.cx + self.w / 2.0, 0.0), 1.0)
        y2 = min(max(self.cy + self.h / 2.0, 0.0), 1.0)
        return x1, y1, x2, y2

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "BBox":
        return cls((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True)
class HandPose:
    """Pose parameter vector (global orientation + articulation)."""

    theta: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.theta, dtype=np.float64)
        if arr.ndim != 1:
            raise UsageError(f"pose must be a flat vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise UsageError("pose contains non-finite values")
        object.__setattr__(self, "theta", arr)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class Trajectory3D:
    """Camera-metric hand position in centimeters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not np.isfinite(v) or abs(v) > 10_000.0:
                raise UsageError(f"trajectory component out of range: {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class HandState:
    hand_type: HandType
    bbox: BBox
    pose: HandPose
    traj: Trajectory3D
    visible: bool = True


@dataclass(frozen=True)
class JointSet:
    """21 joints x (x, y, z) centimeters; joint 0 is the wrist."""

    joints: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.joints, dtype=np.float64)
        if arr.shape != (NUM_JOINTS, 3):
            raise UsageError(f"expected {NUM_JOINTS}x3 joints, got {arr.shape}")
        object.__setattr__(self, "joints", arr)

    @property
    def wrist(self) -> np.ndarray:
        return self.joints[0]


# ---------------------------------------------------------------------------
# rectangle geometry (corner coordinates, no range restriction)


def rect_iou(a, b) -> float:
    """IoU of two (x1, y1, x2, y2) rectangles; 0 for degenerate boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    area_a = max(ax2 - ax1, 0.0) * max(ay2 - ay1, 0.0)
    area_b = max(bx2 - bx1, 0.0) * max(by2 - by1, 0.0)
    if area_a == 0.0 or area_b == 0.0:
        return 0.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def rect_giou(a, b) -> float:
    """Generalized IoU: IoU - (enclose - union) / enclose, in (-1, 1]."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    area_a = max(ax2 - ax1, 0.0) * max(ay2 - ay1, 0.0)
    area_b = max(bx2 - bx1, 0.0) * max(by2 - by1, 0.0)
    iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
    ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
    inter = iw * ih if (area_a > 0.0 and area_b > 0.0) else 0.0
    union = area_a + area_b - inter
    ew = max(ax2, bx2) - min(ax1, bx1)
    eh = max(ay2, by2) - min(ay1, by1)
    enclose = ew * eh
    if enclose <= 0.0 or union <= 0.0:
        return 0.0
    return inter / union - (enclose - union) / enclose


def bbox_iou(a: BBox, b: BBox) -> float:
    return rect_iou(a.corners(), b.corners())


# ---------------------------------------------------------------------------
# synthetic joint rig


def _build_rig(pose_dim: int):
    """Fixed rest offsets (21x3 cm) and pose basis (63 x pose_dim).

    Deterministic in RIG_SEED. The wrist rows are zero so joint 0 tracks the
    trajectory exactly; the basis is scaled so the pose contribution stays
    within 2 cm per axis for poses bounded by pi.
    """
    rng = Xorshift64Star(RIG_SEED)
    rest = np.zeros((NUM_JOINTS, 3))
    rest[1:] = rng.uniforms(-5.0, 5.0, (NUM_JOINTS - 1) * 3).reshape(NUM_JOINTS - 1, 3)
    basis = np.zeros((NUM_JOINTS * 3, pose_dim))
    # the first 3 rows (wrist) stay zero
    basis[3:] = rng.uniforms(-1.0, 1.0, (NUM_JOINTS * 3 - 3) * pose_dim).reshape(-1, pose_dim)
    row_sums = np.abs(basis).sum(axis=1)
    max_row = row_sums.max()
    if max_row > 0:
        basis *= 2.0 / (np.pi * max_row)
    return rest, basis


_RIG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rig(pose_dim: int):
    if pose_dim not in _RIG_CACHE:
        _RIG_CACHE[pose_dim] = _build_rig(pose_dim)
    return _RIG_CACHE[pose_dim]


def synthetic_joints(pose: HandPose, traj: Trajectory3D) -> JointSet:
    """Map (pose, trajectory) to 21 joints: rest + basis @ theta + traj."""
    rest, basis = _rig(pose.dim)
    offsets = (basis @ pose.theta).reshape(NUM_JOINTS, 3)
    joints = rest + offsets + traj.as_array()[None, :]
    return JointSet(joints)
