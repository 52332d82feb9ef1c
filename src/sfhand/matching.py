"""Optimal bipartite matching and the composite forecasting loss.

The assignment solver enumerates every injective assignment, which is
exact and cheap at this model's shapes (at most 2 ground-truth hands), and
resolves ties to the smallest (query, target) pair list among the optima.
The loss matches queries to ground-truth hands with the same cost
structure it optimizes: weighted type cross-entropy, L1 + GIoU box terms,
and L1 pose/trajectory terms (trajectory rescaled cm -> m to balance
magnitudes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import Config
from .errors import DimensionError, NumericalError, UsageError
from .hand import HandState, HandType, rect_giou
from .model import DecodedStep, _softmax_np
from .tensor import Tensor


@dataclass(frozen=True)
class Assignment:
    """Matched (row, column) pairs, sorted by row; rows not listed are
    implicitly assigned to the background class."""

    pairs: tuple[tuple[int, int], ...]
    total: float


MAX_CANDIDATES = 100_000


def hungarian(cost) -> Assignment:
    """Minimum-cost assignment of min(n, m) pairs, by direct enumeration.

    Scores every injective assignment and keeps the smallest ``(total,
    row-sorted pairs)`` key, so ties resolve to the lexicographically
    smallest pair list. The perm(max(n, m), min(n, m)) candidates are capped
    at ``MAX_CANDIDATES``; larger shapes raise UsageError. In-package callers
    stay far below it: ``composite_loss`` is ``num_queries`` x <=2 (the cap
    is reached above 316 queries) and recall matching is <=2 x <=2. The
    largest tested shape, 5 x 7, has 2 520 candidates.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
        raise DimensionError(f"cost must be a non-empty 2-D matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise UsageError("cost matrix contains non-finite entries")
    n, m = c.shape
    k = min(n, m)
    if math.perm(max(n, m), k) > MAX_CANDIDATES:
        raise UsageError(f"{n}x{m} cost matrix has over {MAX_CANDIDATES} assignments")
    values = c.tolist()
    best = None
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            pairs = tuple(zip(rows, cols))  # rows ascend, so already row-sorted
            key = (math.fsum(values[q][g] for q, g in pairs), pairs)
            if best is None or key < best:
                best = key
    return Assignment(pairs=best[1], total=best[0])


# ---------------------------------------------------------------------------
# matching cost and loss


def _gt_arrays(gts: list[HandState], pose_dim: int):
    boxes = np.stack([g.bbox.as_array() for g in gts])
    pose = np.stack([g.pose.theta for g in gts])
    traj = np.stack([g.traj.as_array() for g in gts])
    if pose.shape[1] != pose_dim:
        raise DimensionError(f"ground-truth pose dim {pose.shape[1]} != {pose_dim}")
    return boxes, pose, traj


def _corners_raw(boxes: np.ndarray) -> np.ndarray:
    cx, cy, w, h = boxes.T
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)


def match_cost(decoded: DecodedStep, gts: list[HandState], cfg: Config) -> np.ndarray:
    """Pairwise query/ground-truth cost mirroring the loss terms."""
    if not 1 <= len(gts) <= 2:
        raise UsageError(f"expected 1..2 ground-truth hands, got {len(gts)}")
    probs = _softmax_np(decoded.type_logits.value.astype(np.float64))
    pred_boxes = decoded.boxes.value.astype(np.float64)
    pred_pose = decoded.pose.value.astype(np.float64)
    pred_traj = decoded.traj.value.astype(np.float64)
    gt_boxes, gt_pose, gt_traj = _gt_arrays(gts, cfg.pose_dim)

    q_n, g_n = probs.shape[0], len(gts)
    cost = np.zeros((q_n, g_n))
    pc = _corners_raw(pred_boxes)
    gc = _corners_raw(gt_boxes)
    for q in range(q_n):
        for g in range(g_n):
            type_term = 1.0 - probs[q, gts[g].hand_type.value]
            box_l1 = np.abs(pred_boxes[q] - gt_boxes[g]).sum()
            giou = rect_giou(pc[q], gc[g])
            pose_term = np.abs(pred_pose[q] - gt_pose[g]).mean()
            traj_term = np.abs(pred_traj[q] - gt_traj[g]).sum() / 100.0
            cost[q, g] = (
                cfg.lambda_type * type_term
                + cfg.lambda_box * (box_l1 + (1.0 - giou))
                + cfg.lambda_pose * pose_term
                + cfg.lambda_traj * traj_term
            )
    return cost


def giou_pairs(pred_boxes: Tensor, gt_boxes: np.ndarray) -> Tensor:
    """Differentiable GIoU between paired (M, 4) center-form boxes."""
    eps = 1e-9
    cx, cy = pred_boxes[:, 0], pred_boxes[:, 1]
    w, h = pred_boxes[:, 2], pred_boxes[:, 3]
    x1, x2 = T.sub(cx, T.mul(w, 0.5)), T.add(cx, T.mul(w, 0.5))
    y1, y2 = T.sub(cy, T.mul(h, 0.5)), T.add(cy, T.mul(h, 0.5))
    gx1, gy1, gx2, gy2 = _corners_raw(gt_boxes).T
    g_area = (gx2 - gx1) * (gy2 - gy1)

    iw = T.maximum(T.sub(T.minimum(x2, gx2), T.maximum(x1, gx1)), 0.0)
    ih = T.maximum(T.sub(T.minimum(y2, gy2), T.maximum(y1, gy1)), 0.0)
    inter = T.mul(iw, ih)
    p_area = T.mul(w, h)
    union = T.sub(T.add(p_area, g_area), inter)
    ew = T.sub(T.maximum(x2, gx2), T.minimum(x1, gx1))
    eh = T.sub(T.maximum(y2, gy2), T.minimum(y1, gy1))
    enclose = T.mul(ew, eh)
    return T.sub(
        T.div(inter, T.add(union, eps)),
        T.div(T.sub(enclose, union), T.add(enclose, eps)),
    )


def composite_loss(decoded: DecodedStep, gts: list[HandState], cfg: Config):
    """Matched-pair loss: returns (scalar tensor, weighted breakdown, assignment).

    The assignment is computed on detached values and held fixed during
    differentiation. Unmatched queries incur only a down-weighted
    background cross-entropy; a zero-ground-truth frame therefore has
    type loss only. Breakdown entries are the lambda-weighted
    contributions, so a zeroed lambda reports exactly 0. Non-finite heads
    (a diverged model) raise NumericalError before matching.
    """
    if not np.all(np.isfinite(decoded.stacked_values())):
        raise NumericalError("decoded heads contain non-finite values")
    q_n = decoded.type_logits.value.shape[0]

    if gts:
        assign = hungarian(match_cost(decoded, gts, cfg))
    else:
        assign = Assignment(pairs=(), total=0.0)

    targets = np.full(q_n, HandType.BACKGROUND.value, dtype=np.int64)
    weights = np.full(q_n, cfg.background_weight)
    for q, g in assign.pairs:
        targets[q] = gts[g].hand_type.value
        weights[q] = 1.0
    type_term = T.cross_entropy(decoded.type_logits, targets, weights=weights)

    terms: dict[str, Tensor | None] = {"box": None, "pose": None, "traj": None}
    if assign.pairs:
        rows = np.array([q for q, _ in assign.pairs])
        order = [g for _, g in assign.pairs]
        gt_boxes, gt_pose, gt_traj = _gt_arrays([gts[g] for g in order], cfg.pose_dim)
        mcount = len(assign.pairs)
        pred_b = decoded.boxes[rows]
        box_l1 = T.mul(T.sum_(T.abs_(T.sub(pred_b, gt_boxes))), 1.0 / mcount)
        giou = giou_pairs(pred_b, gt_boxes)
        box_giou = T.mul(T.sum_(T.sub(1.0, giou)), 1.0 / mcount)
        terms["box"] = T.add(box_l1, box_giou)
        terms["pose"] = T.mean_(T.abs_(T.sub(decoded.pose[rows], gt_pose)))
        terms["traj"] = T.mul(
            T.sum_(T.abs_(T.sub(decoded.traj[rows], gt_traj))), 1.0 / (100.0 * mcount)
        )

    lambdas = {"type": cfg.lambda_type, "box": cfg.lambda_box,
               "pose": cfg.lambda_pose, "traj": cfg.lambda_traj}
    total = T.mul(type_term, lambdas["type"])
    breakdown = {"type": lambdas["type"] * type_term.item()}
    for name in ("box", "pose", "traj"):
        term = terms[name]
        if term is not None and lambdas[name] > 0.0:
            total = T.add(total, T.mul(term, lambdas[name]))
            breakdown[name] = lambdas[name] * term.item()
        else:
            breakdown[name] = 0.0
    breakdown["total"] = total.item()
    return total, breakdown, assign
