"""Forecast evaluation: displacement, joint-error, and recall metrics.

Trajectory metrics are in centimeters. Joint errors are wrist-aligned
(JPE) or rigidly Procrustes-aligned (PA-JPE), with the rotation taken from
``np.linalg.svd`` of the 3x3 cross-covariance. Recall matches predicted to
ground-truth boxes per frame by maximal total IoU and requires both the
IoU threshold and an exact hand-type match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError
from .hand import HandState, HandType, JointSet, bbox_iou, synthetic_joints
from .matching import hungarian


def _as_points(seq) -> np.ndarray:
    arr = np.asarray(
        [p.as_array() if hasattr(p, "as_array") else p for p in seq], dtype=np.float64
    )
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DimensionError(f"expected (T, 3) trajectory, got {arr.shape}")
    return arr


def ade(pred_traj, gt_traj) -> float:
    """Mean Euclidean distance over all forecast frames (cm)."""
    p, g = _as_points(pred_traj), _as_points(gt_traj)
    if p.shape != g.shape:
        raise DimensionError(f"trajectory lengths differ: {p.shape} vs {g.shape}")
    if p.shape[0] < 1:
        raise DimensionError("trajectories must contain at least one frame")
    return float(np.linalg.norm(p - g, axis=1).mean())


def fde(pred_traj, gt_traj) -> float:
    """Euclidean distance at the final frame (cm)."""
    p, g = _as_points(pred_traj), _as_points(gt_traj)
    if p.shape != g.shape:
        raise DimensionError(f"trajectory lengths differ: {p.shape} vs {g.shape}")
    if p.shape[0] < 1:
        raise DimensionError("trajectories must contain at least one frame")
    return float(np.linalg.norm(p[-1] - g[-1]))


def jpe(pred: JointSet, gt: JointSet) -> float:
    """Wrist-aligned mean per-joint error (cm)."""
    p = pred.joints - pred.wrist
    g = gt.joints - gt.wrist
    return float(np.linalg.norm(p - g, axis=1).mean())


def procrustes_align(pred, gt, with_scale: bool = False) -> np.ndarray:
    """Optimally rotate (optionally scale) and translate pred onto gt.

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
    norm_p = np.linalg.norm(p0)
    if norm_p < 1e-12 or np.linalg.norm(g0) < 1e-12:
        return p0 + cg
    h = p0.T @ g0
    u, s, vt = np.linalg.svd(h)
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    corr = np.diag([1.0, 1.0, d if d != 0 else 1.0])
    r = v @ corr @ u.T
    aligned = p0 @ r.T
    if with_scale:
        scale = (s * np.diag(corr)).sum() / (norm_p**2)
        aligned = aligned * scale
    return aligned + cg


def pa_jpe(pred: JointSet, gt: JointSet) -> float:
    """Mean per-joint error after rigid Procrustes alignment (cm)."""
    aligned = procrustes_align(pred.joints, gt.joints, with_scale=False)
    return float(np.linalg.norm(aligned - gt.joints, axis=1).mean())


def _recall_counts(pred_frames, gt_frames, iou_thresh: float) -> tuple[int, int]:
    if len(pred_frames) != len(gt_frames):
        raise DimensionError("prediction/ground-truth frame counts differ")
    recalled, total = 0, 0
    for preds, gts in zip(pred_frames, gt_frames):
        preds = [p for p in preds if p.visible]
        gts = [g for g in gts if g.visible]
        total += len(gts)
        if not gts or not preds:
            continue
        iou = np.zeros((len(preds), len(gts)))
        for i, p in enumerate(preds):
            for j, g in enumerate(gts):
                iou[i, j] = bbox_iou(p.bbox, g.bbox)
        for i, j in hungarian(-iou).pairs:
            if iou[i, j] >= iou_thresh and preds[i].hand_type is gts[j].hand_type:
                recalled += 1
    return recalled, total


def recall_at_iou(pred_frames, gt_frames, iou_thresh: float = 0.5) -> float:
    """Fraction of ground-truth hands recalled at the IoU threshold.

    Per frame, predictions are matched to ground truths maximizing total
    IoU; a ground truth is recalled iff its match clears the threshold
    and has the same hand type. Defined as 1.0 when no ground truth exists.
    """
    recalled, total = _recall_counts(pred_frames, gt_frames, iou_thresh)
    return 1.0 if total == 0 else recalled / total


# ---------------------------------------------------------------------------
# rollout aggregation


@dataclass
class MetricReport:
    ade_cm: float
    fde_cm: float
    jpe_cm: float
    pa_jpe_cm: float
    recall_at_05: float
    frames: int
    hands: int

    def __post_init__(self):
        if not 0.0 <= self.recall_at_05 <= 1.0:
            raise DimensionError("recall must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "ade_cm": self.ade_cm,
            "fde_cm": self.fde_cm,
            "jpe_cm": self.jpe_cm,
            "pa_jpe_cm": self.pa_jpe_cm,
            "recall_at_05": self.recall_at_05,
            "frames": self.frames,
            "hands": self.hands,
        }


def _joints_for(state: HandState, stored: JointSet | None) -> JointSet:
    return stored if stored is not None else synthetic_joints(state.pose, state.traj)


@dataclass
class MetricAccumulator:
    """Pools per-frame errors across clips; hand instances pool uniformly.

    Hands missing from either side of a frame are skipped in trajectory
    and pose metrics (recall captures the misses). FDE uses each
    (clip, hand) instance's last evaluable frame.
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
            pred_by = {p.hand_type: p for p in preds if p.visible}
            gt_by = {g.hand_type: g for g in gts if g.visible}
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
        self.finals.extend(last_final.values())
        rec, tot = _recall_counts(pred_frames, gt_frames, 0.5)
        self.recalled += rec
        self.gt_total += tot

    def report(self) -> MetricReport:
        def mean(xs):
            return float(np.mean(xs)) if xs else 0.0

        return MetricReport(
            ade_cm=mean(self.displacements),
            fde_cm=mean(self.finals),
            jpe_cm=mean(self.jpes),
            pa_jpe_cm=mean(self.pa_jpes),
            recall_at_05=1.0 if self.gt_total == 0 else self.recalled / self.gt_total,
            frames=self.frames,
            hands=len(self.displacements),
        )
