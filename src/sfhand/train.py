"""Teacher-forced training with adaptive moments and decoupled weight decay.

A batch is ``cfg.batch`` independent streams that share one memory queue.
The streams are dealt clip visits in shuffled epoch order (clips of fewer
than 2 frames are skipped), and each advances one frame per update; its
window rolls through its visit across update boundaries, and a stream
that finishes a visit starts the next one with an empty window. An
update's B frames run as one batched forward into one batched loss, the
mean of the per-stream losses, and one backward gives the update's
gradients. Training is single-threaded and fully deterministic under a
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
from .memory import MemoryQueue
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
    """Adaptive moments with decoupled weight decay, in place on the tape's
    packed buffer (``Tape.pack``): moments in its dtype, one scratch array
    for every temporary. Only matrices and tables decay; vectors and
    scalars (biases, norm gains, the memory bias scale) are exempt."""

    def __init__(self, model: ForecastModel, lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.tape, self.lr, (self.b1, self.b2) = model.tape, lr, betas
        self.eps, self.weight_decay, self.t = eps, weight_decay, 0
        self.flat = self.tape.pack()
        self.m, self.v, self.grad, self.scratch = (np.zeros_like(self.flat) for _ in range(4))
        self.decay = np.concatenate([np.full(p.value.size, p.value.ndim >= 2)
                                     for p in self.tape.params.values()])

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        p, m, v, g, s = self.flat, self.m, self.v, self.grad, self.scratch
        np.concatenate([grads[name].reshape(-1) for name in self.tape.params], out=g)
        np.multiply(g, g, out=s)
        s *= 1 - self.b2
        v *= self.b2
        v += s
        g *= 1 - self.b1
        m *= self.b1
        m += g
        np.multiply(p, 1.0 - self.lr * self.weight_decay, out=p, where=self.decay)
        # lr * mhat / (sqrt(vhat) + eps), the bias corrections folded into two scalars
        c2 = (1.0 - self.b2**self.t) ** 0.5
        np.sqrt(v, out=s)
        s += self.eps * c2
        np.divide(m, s, out=s)
        s *= self.lr * c2 / (1.0 - self.b1**self.t)
        p -= s


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
    return float(cfg.learning_rate * (floor + (1 - floor) * 0.5 * (1 + np.cos(np.pi * frac))))


def _visits(clips: list[ClipSample], rng: np.random.Generator):
    """Endless clip visits in shuffled epoch order, skipping clips with
    fewer than 2 frames."""
    while True:
        for ci in rng.permutation(len(clips)):
            if clips[ci].num_frames >= 2:
                yield clips[ci]


def batch_loss(model: ForecastModel, streams, hands: list, queue: MemoryQueue):
    """One recorded forward over ``streams``, a list of (clip, frame index)
    whose frames take ``hands`` as input and whose windows ``queue``
    holds, into one ``composite_loss`` against each stream's next ground
    truth. Returns the loss, which is the mean of the per-stream losses,
    its breakdown, and the decoded heads."""
    cfg = model.cfg
    decoded = model.forward_step(
        np.stack([clip.frames[i] for clip, i in streams]), hands, queue,
        instruction_ids=np.stack([tokenize_text(clip.instruction, cfg.text_len)
                                  for clip, _ in streams]),
    )
    loss, breakdown, _ = composite_loss(decoded, [clip.gt[i + 1] for clip, i in streams], cfg)
    return loss, breakdown, decoded


def train(model: ForecastModel, clips: list[ClipSample], *,
          steps: Optional[int] = None,
          on_record: Optional[Callable[[LossRecord], None]] = None) -> list[LossRecord]:
    """Run teacher-forced training; returns one loss record per update.

    With probability ``cfg.scheduled_sampling``, a stream past its visit's
    first frame takes its previous forecast as its hand input: the
    ``select_hands`` of its heads in the last update."""
    cfg = model.cfg
    if not any(c.num_frames >= 2 for c in clips):
        raise UsageError("training needs at least one clip of 2 or more frames")
    total_updates = cfg.steps if steps is None else steps
    optimizer = AdamW(model, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    visits = _visits(clips, np.random.default_rng(cfg.seed))
    sample_rng = np.random.default_rng(cfg.seed + 1)
    streams = [(next(visits), 0) for _ in range(cfg.batch)]  # (clip, frame index)
    queue = model.new_queue(cfg.batch)
    decoded = None  # the last update's heads, for scheduled sampling

    records: list[LossRecord] = []
    for update in range(total_updates):
        hands = [list(clip.gt[i]) for clip, i in streams]
        if cfg.scheduled_sampling > 0:
            with model.tape.no_record():
                for b, (_, i) in enumerate(streams):
                    if i > 0 and sample_rng.random() < cfg.scheduled_sampling:
                        hands[b] = model.select_hands(decoded.frame(b))
        model.tape.reset()
        loss, breakdown, decoded = batch_loss(model, streams, hands, queue)
        _check_finite(breakdown, update + 1)
        rec = LossRecord(step=update + 1, **breakdown)
        optimizer.lr = lr_at(cfg, update, total_updates)
        optimizer.step(model.tape.backward(loss))
        records.append(rec)
        for b, (clip, i) in enumerate(streams):
            streams[b] = (clip, i + 1)
            if i + 2 == clip.num_frames:  # the visit is done: deal the next
                streams[b] = (next(visits), 0)
                queue.restart(b)
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
