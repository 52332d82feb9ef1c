"""Teacher-forced training with adaptive moments and decoupled weight decay.

One optimizer update consumes the next ``cfg.batch`` frames of a stream
of clip visits in shuffled epoch order (gradient accumulation); the memory
queue rolls through a visit's frames, across update boundaries, and starts
empty at each visit. Training is single-threaded and fully deterministic
under a fixed seed.
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


def _frames(model: ForecastModel, clips: list[ClipSample], rng: np.random.Generator):
    """Endless (clip, frame index, queue) over clip visits in shuffled epoch
    order; each visit starts from an empty queue."""
    while True:
        for ci in rng.permutation(len(clips)):
            queue = model.new_queue()
            for i in range(clips[ci].num_frames - 1):
                yield clips[ci], i, queue


def train(model: ForecastModel, clips: list[ClipSample], *,
          steps: Optional[int] = None,
          on_record: Optional[Callable[[LossRecord], None]] = None) -> list[LossRecord]:
    """Run teacher-forced training; returns one loss record per update."""
    cfg = model.cfg
    if not any(c.num_frames >= 2 for c in clips):
        raise UsageError("training needs at least one clip of 2 or more frames")
    total_updates = cfg.steps if steps is None else steps
    optimizer = AdamW(model, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    frames = _frames(model, clips, np.random.default_rng(cfg.seed))
    sample_rng = np.random.default_rng(cfg.seed + 1)
    last_pred: list = []  # the previous frame's forecast, for scheduled sampling

    records: list[LossRecord] = []
    for update in range(total_updates):
        grad_sum: dict[str, np.ndarray] = {}
        term_sums = {"total": 0.0, "type": 0.0, "box": 0.0, "pose": 0.0, "traj": 0.0}
        for _ in range(cfg.batch):
            clip, i, queue = next(frames)
            model.tape.reset()
            hands_in = list(clip.gt[i])
            if cfg.scheduled_sampling > 0 and i > 0:
                if sample_rng.random() < cfg.scheduled_sampling:
                    hands_in = last_pred
            res = model.forward_step(
                clip.frames[i], hands_in, queue,
                instruction_ids=tokenize_text(clip.instruction, cfg.text_len),
            )
            loss, breakdown, _ = composite_loss(res.decoded, clip.gt[i + 1], cfg)
            _check_finite(breakdown, update + 1)
            for k, g in model.tape.backward(loss).items():
                if k in grad_sum:
                    grad_sum[k] += g.astype(np.float64)
                else:
                    grad_sum[k] = g.astype(np.float64)
            for k in term_sums:
                term_sums[k] += breakdown[k]
            if cfg.scheduled_sampling > 0:
                last_pred = model.select_hands(res.decoded)
        optimizer.lr = lr_at(cfg, update, total_updates)
        optimizer.step({k: v / cfg.batch for k, v in grad_sum.items()})
        rec = LossRecord(step=update + 1, **{k: v / cfg.batch for k, v in term_sums.items()})
        _check_finite(rec.__dict__, update + 1)
        records.append(rec)
        if on_record:
            on_record(rec)
    return records


def write_loss_curve(path, records: list[LossRecord], cfg: Config) -> None:
    """Plain-text loss curve: one CSV row per update, config echoed in front."""
    lines = [f"# config: {cfg.to_json().replace(chr(10), ' ')}"]
    lines.append("step,total,type,box,pose,traj")
    lines.extend(r.as_row() for r in records)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
