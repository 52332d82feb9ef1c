"""Optimal bipartite matching and the composite forecasting loss.

The assignment solver enumerates every injective assignment, which is
exact and cheap at this model's shapes (at most 2 ground-truth hands), and
resolves ties to the smallest (query, target) pair list among the optima.
The loss matches queries to ground-truth hands on the very terms it
optimizes: L1 + GIoU box, L1 pose and L1 trajectory terms (trajectory
rescaled cm -> m to balance magnitudes), computed once for every
frame/query/ground-truth triple of a batch, plus a weighted type
cross-entropy. Each frame is matched separately; the loss graph is built
once for the whole batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import Config
from .errors import DimensionError, NumericalError, UsageError
from .hand import CM_PER_M, BBox, HandPose, HandState, HandType, Trajectory3D
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


def _lambdas(cfg: Config) -> dict[str, float]:
    return {"type": cfg.lambda_type, "box": cfg.lambda_box,
            "pose": cfg.lambda_pose, "traj": cfg.lambda_traj}


def match_cost(decoded: DecodedStep, gts: list[list[HandState]], cfg: Config):
    """Pairwise query/ground-truth costs of a batch, and the unweighted
    (B, Q, G) loss terms on the tape they are built from, in the tape's
    precision (float32 by default): box L1 + 1 - GIoU, mean pose L1, and
    trajectory L1 in meters. ``gts`` holds B lists of 0..2 hands; G is the
    longest, at least 1, and shorter lists are padded after their hands
    with a whole-frame box, which keeps GIoU finite. Frame b's cost is
    ``cost[b, :, :len(gts[b])]``: ``lambda_type * (1 - p)`` plus the
    weighted terms cast to float64; costs equal at the tape's precision tie
    (smallest pair list wins)."""
    b_n, q_n = decoded.type_logits.value.shape[:2]
    if len(gts) != b_n or any(len(frame) > 2 for frame in gts):
        raise UsageError(f"expected {b_n} lists of 0..2 ground-truth hands, "
                         f"got {[len(frame) for frame in gts]}")
    if any(h.pose.dim != cfg.pose_dim for frame in gts for h in frame):
        raise DimensionError(f"ground-truth pose dim != {cfg.pose_dim}")
    g_n = max([1, *map(len, gts)])
    pad = HandState(HandType.BACKGROUND, BBox(0.5, 0.5, 1.0, 1.0),
                    HandPose(np.zeros(cfg.pose_dim)), Trajectory3D(0.0, 0.0, 0.0))
    padded = [[*frame] + [pad] * (g_n - len(frame)) for frame in gts]
    gt_type = np.array([[h.hand_type.value for h in frame] for frame in padded])
    gt_boxes = np.array([[h.bbox.as_array() for h in frame] for frame in padded])[:, None]
    gt_pose = np.array([[h.pose.theta for h in frame] for frame in padded])[:, None]
    gt_traj = np.array([[h.traj.as_array() for h in frame] for frame in padded])[:, None]
    # (B, Q, 1, k) heads broadcast against (B, 1, G, k) ground truth
    boxes, pose, traj = (T.reshape(h, (b_n, q_n, 1, -1))
                         for h in (decoded.boxes, decoded.pose, decoded.traj))
    terms = {
        "box": T.add(T.sum_(T.abs_(T.sub(boxes, gt_boxes)), axis=-1),
                     T.sub(1.0, giou_pairs(boxes, gt_boxes))),
        "pose": T.mean_(T.abs_(T.sub(pose, gt_pose)), axis=-1),
        "traj": T.mul(T.sum_(T.abs_(T.sub(traj, gt_traj)), axis=-1), 1.0 / CM_PER_M),
    }
    probs = _softmax_np(decoded.type_logits.value.astype(np.float64))
    lambdas = _lambdas(cfg)
    cost = lambdas["type"] * (1.0 - np.take_along_axis(probs, gt_type[:, None, :], axis=-1))
    for name, term in terms.items():
        cost = cost + lambdas[name] * term.value.astype(np.float64)
    return cost, terms


def giou_pairs(pred_boxes: Tensor, gt_boxes: np.ndarray) -> Tensor:
    """Differentiable GIoU of center-form boxes; leading axes broadcast, so
    (M, 4) with (M, 4) pairs rows and (B, Q, 1, 4) with (B, 1, G, 4) gives
    (B, Q, G)."""
    eps = 1e-9
    cx, cy = pred_boxes[..., 0], pred_boxes[..., 1]
    w, h = pred_boxes[..., 2], pred_boxes[..., 3]
    x1, x2 = T.sub(cx, T.mul(w, 0.5)), T.add(cx, T.mul(w, 0.5))
    y1, y2 = T.sub(cy, T.mul(h, 0.5)), T.add(cy, T.mul(h, 0.5))
    gcx, gcy, gw, gh = np.moveaxis(gt_boxes, -1, 0)
    gx1, gy1, gx2, gy2 = gcx - gw / 2, gcy - gh / 2, gcx + gw / 2, gcy + gh / 2
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


def composite_loss(decoded: DecodedStep, gts: list[list[HandState]], cfg: Config):
    """Matched-pair loss of a batch: returns (scalar tensor, weighted
    breakdown, one assignment per frame).

    ``decoded`` holds (B, Q, ·) heads and ``gts`` B lists of 0..2 hands.
    The loss is the mean over frames of each frame's loss. Each frame's
    assignment is computed on detached values and held fixed during
    differentiation; a frame's box/pose/traj term is the mean of its
    matched ``match_cost`` entries, so each matched entry weighs
    1 / (B * n_b). Unmatched queries incur only a down-weighted background
    cross-entropy, taken once over the B * Q rows; a zero-ground-truth
    frame therefore has type loss only. Breakdown entries are the
    lambda-weighted contributions, so a zeroed lambda reports exactly 0.
    Non-finite heads (a diverged model) raise NumericalError before
    matching.
    """
    if not np.all(np.isfinite(decoded.stacked_values())):
        raise NumericalError("decoded heads contain non-finite values")
    cost, terms = match_cost(decoded, gts, cfg)
    b_n, q_n = cost.shape[:2]
    assigns = [hungarian(cost[b, :, :len(frame)]) if frame else Assignment(pairs=(), total=0.0)
               for b, frame in enumerate(gts)]

    targets = np.full((b_n, q_n), HandType.BACKGROUND.value, dtype=np.int64)
    weights = np.full((b_n, q_n), cfg.background_weight)
    matched = np.zeros(cost.shape)  # each matched entry's weight in the loss
    for b, assign in enumerate(assigns):
        for q, g in assign.pairs:
            targets[b, q] = gts[b][g].hand_type.value
            weights[b, q] = 1.0
            matched[b, q, g] = 1.0 / (b_n * len(gts[b]))
    logits = T.reshape(decoded.type_logits, (b_n * q_n, -1))
    type_term = T.cross_entropy(logits, targets.ravel(), weights=weights.ravel())

    lambdas = _lambdas(cfg)
    total = T.mul(type_term, lambdas["type"])
    breakdown = {"type": lambdas["type"] * type_term.item()}
    for name in ("box", "pose", "traj"):
        if lambdas[name] > 0.0:
            term = T.sum_(T.mul(terms[name], matched))
            total = T.add(total, T.mul(term, lambdas[name]))
            breakdown[name] = lambdas[name] * term.item()
        else:
            breakdown[name] = 0.0
    breakdown["total"] = total.item()
    return total, breakdown, assigns
