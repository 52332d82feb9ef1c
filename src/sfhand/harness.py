"""Benchmark construction and dataset-level evaluation.

The synthetic benchmark is a fixed-composition mix of scenarios: 64
training clips (20 reach, 20 pick-and-return, 12 two-hands, 12 idle) and
16 held-out clips (8 reach, 8 pick-and-return) drawn from a disjoint seed
stream. Evaluation rolls the clips out as lockstep batches of at most
``EVAL_STREAMS`` equal-length clips and pools every clip's metrics into
one accumulator, in input order.
"""

from __future__ import annotations

from .data import ClipSample, generate_synthetic
from .errors import UsageError
from .metrics import MetricAccumulator, MetricReport
from .model import ForecastModel
from .stream import ORACLE, SELF_FEED, lockstep_batches, rollout, static_baseline

TRAIN_MIX = (("reach", 20), ("pick_and_return", 20), ("two_hands", 12), ("idle", 12))
EVAL_MIX = (("reach", 8), ("pick_and_return", 8))
_EVAL_SEED_OFFSET = 0x5EED_0FF5E7
STATIC = "static"
# Streams per evaluation rollout. Memory grows with the width, but speed
# stops improving near 16. On the 80 clips of build_benchmark(0, raster=64), oracle mode, one
# BLAS thread, width 16 took 20-22 ms per clip and +32 MB peak RSS; one
# batch of all 80 took 21-24 ms and +153 MB.
EVAL_STREAMS = 16


def build_benchmark(seed: int, *, raster: int = 32, pose_dim: int = 48,
                    frames: int = 16):
    """(train_clips, eval_clips) with deterministic, disjoint seed streams."""
    train: list[ClipSample] = []
    for i, (scenario, count) in enumerate(TRAIN_MIX):
        train.extend(
            generate_synthetic(seed * 8 + i, scenario, count, frames=frames,
                               raster=raster, pose_dim=pose_dim)
        )
    held: list[ClipSample] = []
    for i, (scenario, count) in enumerate(EVAL_MIX):
        held.extend(
            generate_synthetic(seed * 8 + i + _EVAL_SEED_OFFSET, scenario, count,
                               frames=frames, raster=raster, pose_dim=pose_dim)
        )
    return train, held


def evaluate_model(model: ForecastModel | None, clips: list[ClipSample], mode: str,
                   *, workers: int = 1) -> MetricReport:
    """Pool rollout metrics over a clip set, scoring each clip once, in
    input order. ``mode``: 'self', 'oracle', or 'static' (the latter needs
    no model). The clips run as the lockstep ``rollout``s of
    ``lockstep_batches(clips, EVAL_STREAMS)``, so the report equals pooling
    one rollout per clip.
    ``workers`` stays only because perfbench passes it, as 1."""
    if workers != 1:
        raise UsageError(f"workers must be 1, got {workers}; the argument stays only "
                         "because perfbench passes it")
    if mode not in (SELF_FEED, ORACLE, STATIC):
        raise UsageError(f"unknown eval mode {mode!r}")
    if mode != STATIC and model is None:
        raise UsageError("model required unless mode is 'static'")
    if mode == STATIC:
        forecasts = [static_baseline(clip) for clip in clips]
    else:
        forecasts = [None] * len(clips)
        for batch in lockstep_batches(clips, EVAL_STREAMS):
            for k, states in zip(batch, rollout(model, [clips[k] for k in batch], mode)[0]):
                forecasts[k] = states
    acc = MetricAccumulator()
    for clip, states in zip(clips, forecasts):
        acc.add_clip(states, clip.gt[1:], clip.gt_joints[1:])
    return acc.report()
