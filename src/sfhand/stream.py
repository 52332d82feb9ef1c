"""Streaming inference: sessions, rollouts, baselines, and correctness probes.

A session steps B independent streams in lockstep, one frame each, and
forecasts each stream's next hand state, feeding back either its own
prediction (self-feed) or the ground truth (oracle); ``rollout`` runs
equal-length clips as its streams. ``batch_replay_check`` is the
correctness oracle for the FIFO memory: it recomputes every step of every
stream from scratch over the visible window and compares against the
incremental streams. ``bench`` measures per-step cost and checks exactly
that it stays constant over long streams.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .data import ClipSample
from .errors import UsageError
from .hand import HandState
from .model import ForecastModel

SELF_FEED = "self"
ORACLE = "oracle"


@dataclass
class StepRecord:
    frames: np.ndarray              # (B, R, R, 3)
    hands_in: list[list[HandState]]
    outputs: np.ndarray             # the step's (B, Q, ·) head values, stacked


@dataclass
class Session:
    """B autoregressive streams, one instruction each, stepped in lockstep.
    A single instruction string is one stream, stepped with one (R, R, 3)
    frame and one hand list; B instructions take (B, R, R, 3) frames and B
    hand lists, as ``prime`` takes B hand lists."""

    model: ForecastModel
    instruction: Union[str, Sequence[str]]
    mode: str = SELF_FEED
    record: bool = False
    trace: list[StepRecord] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in (SELF_FEED, ORACLE):
            raise UsageError(f"unknown session mode {self.mode!r}")
        self.single = isinstance(self.instruction, str)
        instructions = [self.instruction] if self.single else list(self.instruction)
        self.queue = self.model.new_queue(len(instructions))
        self.last_states = [[] for _ in instructions]
        self.instruction_values = (self.model.encode_instructions(instructions)
                                   if self.model.cfg.use_text else None)

    def prime(self, initial_states) -> None:
        """Provide each stream's observed hand state for the first step."""
        states = [initial_states] if self.single else initial_states
        self.last_states = [list(s) for s in states]

    def step(self, frames: np.ndarray, gt_hands: Optional[list] = None):
        """Consume one frame per stream, return each stream's forecast
        hand states for the next."""
        if self.single:
            frames, gt_hands = frames[None], None if gt_hands is None else [gt_hands]
        if self.mode == ORACLE:
            if gt_hands is None:
                raise UsageError("oracle mode requires ground-truth hand states")
            hands_in = [list(h) for h in gt_hands]
        else:
            hands_in = self.last_states
        tape = self.model.tape
        tape.reset()
        with tape.no_record():
            decoded = self.model.forward_step(frames, hands_in, self.queue,
                                              instruction_values=self.instruction_values)
            preds = [self.model.select_hands(decoded.frame(j)) for j in range(len(hands_in))]
        if self.record:
            self.trace.append(StepRecord(frames, hands_in, decoded.stacked_values()))
        self.last_states = preds
        return preds[0] if self.single else preds


def rollout(model: ForecastModel, clips: list[ClipSample], mode: str = SELF_FEED,
            record: bool = False):
    """Forecast frames 2..T from frames 1..T-1 of equal-length clips, each
    clip one stream of a lockstep session; returns (each clip's per-frame
    states, session). Scoring is left to the caller."""
    lengths = {clip.num_frames for clip in clips}
    if len(lengths) != 1 or min(lengths) < 2:
        raise UsageError("rollout needs clips of one length, at least 2 frames")
    session = Session(model, [clip.instruction for clip in clips], mode=mode, record=record)
    session.prime([clip.gt[0] for clip in clips])
    frames = np.stack([clip.frames for clip in clips], axis=1)  # (T, B, R, R, 3)
    steps = [session.step(frames[i], [clip.gt[i] for clip in clips])
             for i in range(len(frames) - 1)]
    return [list(forecasts) for forecasts in zip(*steps)], session


def static_baseline(clip: ClipSample):
    """Every forecast equals the first observed frame's ground truth."""
    if clip.num_frames < 2:
        raise UsageError("baseline needs a clip with at least 2 frames")
    return [list(clip.gt[0]) for _ in range(clip.num_frames - 1)]


def batch_replay_check(model: ForecastModel, clips, mode: str = SELF_FEED) -> float:
    """Max |streaming - from-scratch| over all steps of all streams of a
    lockstep rollout of ``clips`` (one clip, or a list of equal-length
    clips).

    Every step t is recomputed by re-encoding the window of steps the
    queue could have seen, rebuilding the queue, and decoding once. The
    recorded per-step inputs (frames and fed-back hand states) are reused
    so both computations see identical inputs. The replayed step enqueues
    into its fresh queue, which is then dropped.
    """
    clips = [clips] if isinstance(clips, ClipSample) else clips
    _, session = rollout(model, clips, mode=mode, record=True)
    n = model.cfg.memory_size
    worst = 0.0
    with model.tape.no_record():
        for t, rec in enumerate(session.trace):
            fresh = model.new_queue(len(clips))
            if model.cfg.use_memory and model.cfg.memory_token_count():
                for past in session.trace[max(0, t - n):t]:
                    e_t, mask = model.encode_current(past.frames, past.hands_in)
                    fresh.enqueue(e_t.value, mask)
            decoded = model.forward_step(
                rec.frames, rec.hands_in, fresh,
                instruction_values=session.instruction_values,
            )
            diff = np.abs(decoded.stacked_values() - rec.outputs)
            worst = max(worst, float(diff.max()) if diff.size else 0.0)
    return worst


@dataclass
class BenchResult:
    steps: int
    steps_per_sec: float
    mean_latency_s: float
    median_latency_s: float
    max_queue_len: int
    capacity: int
    # fewest and most tape ops of one timed step (Tape.ops after the step)
    min_step_ops: int
    max_step_ops: int
    # median latency of the last decile of steps over that of the first,
    # minus 1; reported only, since wall-clock time on a shared machine
    # drifts for reasons the stream does not control
    drift_fraction: float

    def constant_cost(self) -> bool:
        """Every timed step ran the same number of tape ops and the queue
        never exceeded its capacity, so per-step work cannot grow."""
        return (self.min_step_ops == self.max_step_ops
                and self.max_queue_len <= self.capacity)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def bench(model: ForecastModel, length: int, *, seed: int = 0) -> BenchResult:
    """Throughput over a synthetic endless stream, plus the work counters
    that ``BenchResult.constant_cost`` checks. Warm-up fills the queue, so
    every timed step attends over the same number of keys."""
    if length < 2:
        raise UsageError("bench needs at least 2 steps")
    cfg = model.cfg
    rng = np.random.default_rng(seed)
    frames = [rng.uniform(0, 1, (cfg.raster, cfg.raster, 3)) for _ in range(8)]
    session = Session(model, "reach the object", mode=SELF_FEED)
    session.prime([])
    for i in range(cfg.memory_size):
        session.step(frames[i % len(frames)])
    max_queue = len(session.queue)
    latencies = np.empty(length)
    ops = np.empty(length, dtype=np.int64)
    for i in range(length):
        t0 = time.perf_counter()
        session.step(frames[i % len(frames)])
        latencies[i] = time.perf_counter() - t0
        ops[i] = model.tape.ops
        max_queue = max(max_queue, len(session.queue))
    decile = max(1, length // 10)
    first = float(np.median(latencies[:decile]))
    last = float(np.median(latencies[-decile:]))
    total = float(latencies.sum())
    return BenchResult(
        steps=length,
        steps_per_sec=length / total if total > 0 else math.inf,
        mean_latency_s=float(latencies.mean()),
        median_latency_s=float(np.median(latencies)),
        max_queue_len=max_queue,
        capacity=cfg.memory_size,
        min_step_ops=int(ops.min()),
        max_step_ops=int(ops.max()),
        drift_fraction=last / first - 1.0 if first > 0 else 0.0,
    )
