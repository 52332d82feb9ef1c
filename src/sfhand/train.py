"""Teacher-forced training with adaptive moments and decoupled weight decay.

One optimizer update consumes ``cfg.batch`` consecutive frames (gradient
accumulation); the memory queue rolls through frames and resets at clip
boundaries. Training is single-threaded and fully deterministic under a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import Config
from .data import ClipSample
from .encoders import tokenize_text
from .errors import NumericalError, UsageError
from .matching import composite_loss
from .model import ForecastModel


@dataclass
class LossRecord:
    step: int
    total: float
    type: float
    box: float
    pose: float
    traj: float

    def as_row(self) -> str:
        return (f"{self.step},{self.total:.8f},{self.type:.8f},"
                f"{self.box:.8f},{self.pose:.8f},{self.traj:.8f}")


class AdamW:
    """Adaptive moment estimation with decoupled weight decay.

    Decay applies to matrices and tables only; vectors and scalars
    (biases, norm gains, the memory bias scale) are exempt.
    """

    def __init__(self, model: ForecastModel, lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.model = model
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        params = model.tape.params
        self.m = {k: np.zeros_like(p.value, dtype=np.float64) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value, dtype=np.float64) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        tape = self.model.tape
        for name, p in tape.params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            mhat = self.m[name] / b1t
            vhat = self.v[name] / b2t
            new = p.value.astype(np.float64) - self.lr * mhat / (np.sqrt(vhat) + self.eps)
            if self.weight_decay > 0 and p.value.ndim >= 2:
                new -= self.lr * self.weight_decay * p.value.astype(np.float64)
            tape.set_param(name, new)


def _check_finite(breakdown: dict, update: int) -> None:
    for term in ("type", "box", "pose", "traj", "total"):
        if not np.isfinite(breakdown[term]):
            raise NumericalError(
                f"non-finite {term} loss at update {update}; aborting"
            )


def lr_at(cfg: Config, update: int, total: int) -> float:
    """Warmup for the first 5% of updates, then cosine decay to 2%."""
    if cfg.lr_schedule == "constant" or total <= 1:
        return cfg.learning_rate
    warmup = max(1, int(0.05 * total))
    if update < warmup:
        return cfg.learning_rate * (update + 1) / warmup
    frac = (update - warmup) / max(1, total - warmup)
    floor = 0.02
    return cfg.learning_rate * (floor + (1 - floor) * 0.5 * (1 + np.cos(np.pi * frac)))


def train(model: ForecastModel, clips: list[ClipSample], *,
          steps: Optional[int] = None,
          on_record: Optional[Callable[[LossRecord], None]] = None) -> list[LossRecord]:
    """Run teacher-forced training; returns one loss record per update."""
    cfg = model.cfg
    if not clips:
        raise UsageError("training needs at least one clip")
    total_updates = cfg.steps if steps is None else steps
    optimizer = AdamW(model, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    order_rng = np.random.default_rng(cfg.seed)
    sample_rng = np.random.default_rng(cfg.seed + 1)

    records: list[LossRecord] = []
    grad_sum: dict[str, np.ndarray] = {}
    frame_count = 0
    term_sums = {"total": 0.0, "type": 0.0, "box": 0.0, "pose": 0.0, "traj": 0.0}
    updates = 0

    def flush_update():
        nonlocal grad_sum, frame_count, updates, term_sums
        grads = {k: v / frame_count for k, v in grad_sum.items()}
        optimizer.lr = lr_at(cfg, updates, total_updates)
        optimizer.step(grads)
        updates += 1
        rec = LossRecord(
            step=updates,
            total=term_sums["total"] / frame_count,
            type=term_sums["type"] / frame_count,
            box=term_sums["box"] / frame_count,
            pose=term_sums["pose"] / frame_count,
            traj=term_sums["traj"] / frame_count,
        )
        _check_finite(rec.__dict__, updates)
        records.append(rec)
        if on_record:
            on_record(rec)
        grad_sum = {}
        frame_count = 0
        term_sums = {k: 0.0 for k in term_sums}

    while updates < total_updates:
        epoch = order_rng.permutation(len(clips))
        for ci in epoch:
            clip = clips[ci]
            queue = model.new_queue()
            ids = tokenize_text(clip.instruction, cfg.text_len)
            last_pred = list(clip.gt[0])
            for i in range(clip.num_frames - 1):
                model.tape.reset()
                hands_in = list(clip.gt[i])
                if cfg.scheduled_sampling > 0 and i > 0:
                    if sample_rng.random() < cfg.scheduled_sampling:
                        hands_in = last_pred
                res = model.forward_step(
                    clip.frames[i], hands_in, queue,
                    instruction_ids=ids, step_index=i,
                )
                loss, breakdown, _ = composite_loss(res.decoded, clip.gt[i + 1], cfg)
                _check_finite(breakdown, updates + 1)
                grads = model.tape.backward(loss)
                for k, g in grads.items():
                    if k in grad_sum:
                        grad_sum[k] += g.astype(np.float64)
                    else:
                        grad_sum[k] = g.astype(np.float64)
                for k in term_sums:
                    term_sums[k] += breakdown[k]
                frame_count += 1
                if cfg.scheduled_sampling > 0:
                    last_pred = model.select_hands(res.decoded)
                if frame_count >= cfg.batch:
                    flush_update()
                    if updates >= total_updates:
                        return records
    return records


def write_loss_curve(path, records: list[LossRecord], cfg: Config) -> None:
    """Plain-text loss curve: one CSV row per update, config echoed in front."""
    lines = [f"# config: {cfg.to_json().replace(chr(10), ' ')}"]
    lines.append("step,total,type,box,pose,traj")
    lines.extend(r.as_row() for r in records)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
