"""Forecast evaluation: displacement, joint-error, and recall metrics.

Trajectory metrics are in centimeters. Joint errors are wrist-aligned
(JPE) or rigidly Procrustes-aligned (PA-JPE), with the rotation taken from
``np.linalg.svd`` of the 3x3 cross-covariance. ``MetricAccumulator`` is
the one scorer: it pools every clip's errors and recall counts, and an
empty pool reports NaN, never a perfect score.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError
from .hand import HandState, HandType, JointSet, bbox_iou, synthetic_joints
from .matching import hungarian


def jpe(pred: JointSet, gt: JointSet) -> float:
    """Wrist-aligned mean per-joint error (cm)."""
    p = pred.joints - pred.wrist
    g = gt.joints - gt.wrist
    return float(np.linalg.norm(p - g, axis=1).mean())


def procrustes_align(pred, gt) -> np.ndarray:
    """Optimally rotate and translate pred onto gt.

    Rigid Kabsch alignment: rotation from the SVD of the cross-covariance,
    determinant-corrected to a proper rotation. Degenerate all-coincident
    point sets fall back to translation only. Non-finite input raises
    NumericalError.
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape or p.ndim != 2 or p.shape[1] != 3:
        raise DimensionError(f"expected matching (n, 3) point sets, got {p.shape} / {g.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(g))):
        raise NumericalError("procrustes_align input has non-finite entries")
    cp, cg = p.mean(axis=0), g.mean(axis=0)
    p0, g0 = p - cp, g - cg
    if np.linalg.norm(p0) < 1e-12 or np.linalg.norm(g0) < 1e-12:
        return p0 + cg
    h = p0.T @ g0
    u, _, vt = np.linalg.svd(h)
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    corr = np.diag([1.0, 1.0, d if d != 0 else 1.0])
    r = v @ corr @ u.T
    return p0 @ r.T + cg


def pa_jpe(pred: JointSet, gt: JointSet) -> float:
    """Mean per-joint error after rigid Procrustes alignment (cm)."""
    aligned = procrustes_align(pred.joints, gt.joints)
    return float(np.linalg.norm(aligned - gt.joints, axis=1).mean())


# ---------------------------------------------------------------------------
# rollout aggregation


@dataclass
class MetricReport:
    """Pooled metrics; NaN where nothing was pooled (no scored hand pair,
    or no ground-truth hand for recall and coverage)."""

    ade_cm: float
    fde_cm: float
    jpe_cm: float
    pa_jpe_cm: float
    recall_at_05: float
    coverage: float  # scored hands over ground-truth hands
    frames: int
    hands: int

    def __post_init__(self):
        for name in ("recall_at_05", "coverage"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0 or math.isnan(v)):
                raise DimensionError(f"{name} must lie in [0, 1] or be NaN")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _joints_for(state: HandState, stored: JointSet | None) -> JointSet:
    return stored if stored is not None else synthetic_joints(state.pose, state.traj)


@dataclass
class MetricAccumulator:
    """Pools per-frame errors across clips; hand instances pool uniformly.

    Hands missing from either side of a frame are skipped in trajectory
    and pose metrics (recall captures the misses). FDE uses each
    (clip, hand) instance's last evaluable frame. Recall matches a frame's
    predicted to ground-truth boxes by maximal total IoU; a ground truth
    is recalled iff its match clears IoU 0.5 and has the same hand type.
    """

    displacements: list = field(default_factory=list)
    finals: list = field(default_factory=list)
    jpes: list = field(default_factory=list)
    pa_jpes: list = field(default_factory=list)
    recalled: int = 0
    gt_total: int = 0
    frames: int = 0

    def add_clip(self, pred_frames, gt_frames, gt_joints_frames=None) -> None:
        """``gt_joints_frames``: per frame {HandType: JointSet} or None."""
        if len(pred_frames) != len(gt_frames):
            raise DimensionError("prediction/ground-truth frame counts differ")
        self.frames += len(pred_frames)
        last_final: dict[HandType, float] = {}
        for t, (preds, gts) in enumerate(zip(pred_frames, gt_frames)):
            stored = gt_joints_frames[t] if gt_joints_frames else {}
            preds = [p for p in preds if p.visible]
            gts = [g for g in gts if g.visible]
            pred_by = {p.hand_type: p for p in preds}
            gt_by = {g.hand_type: g for g in gts}
            for ht, g in gt_by.items():
                p = pred_by.get(ht)
                if p is None:
                    continue
                dist = float(np.linalg.norm(p.traj.as_array() - g.traj.as_array()))
                self.displacements.append(dist)
                last_final[ht] = dist
                gj = _joints_for(g, stored.get(ht))
                pj = synthetic_joints(p.pose, p.traj)
                self.jpes.append(jpe(pj, gj))
                self.pa_jpes.append(pa_jpe(pj, gj))
            self.gt_total += len(gts)
            if preds and gts:
                iou = np.array([[bbox_iou(p.bbox, g.bbox) for g in gts] for p in preds])
                for i, j in hungarian(-iou).pairs:
                    if iou[i, j] >= 0.5 and preds[i].hand_type is gts[j].hand_type:
                        self.recalled += 1
        self.finals.extend(last_final.values())

    def report(self) -> MetricReport:
        def mean(xs):
            return float(np.mean(xs)) if xs else math.nan

        def per_gt(count):
            return count / self.gt_total if self.gt_total else math.nan

        return MetricReport(
            ade_cm=mean(self.displacements),
            fde_cm=mean(self.finals),
            jpe_cm=mean(self.jpes),
            pa_jpe_cm=mean(self.pa_jpes),
            recall_at_05=per_gt(self.recalled),
            coverage=per_gt(len(self.displacements)),
            frames=self.frames,
            hands=len(self.displacements),
        )
