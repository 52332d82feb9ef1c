"""Benchmark construction and dataset-level evaluation.

The synthetic benchmark is a fixed-composition mix of scenarios: 64
training clips (20 reach, 20 pick-and-return, 12 two-hands, 12 idle) and
16 held-out clips (8 reach, 8 pick-and-return) drawn from a disjoint seed
stream. Evaluation rolls each group of equal-length clips out as one
lockstep batch of streams and pools every clip's metrics into one
accumulator, in input order.
"""

from __future__ import annotations

from .data import ClipSample, generate_synthetic
from .errors import UsageError
from .metrics import MetricAccumulator, MetricReport
from .model import ForecastModel
from .stream import ORACLE, SELF_FEED, rollout, static_baseline

TRAIN_MIX = (("reach", 20), ("pick_and_return", 20), ("two_hands", 12), ("idle", 12))
EVAL_MIX = (("reach", 8), ("pick_and_return", 8))
_EVAL_SEED_OFFSET = 0x5EED_0FF5E7
STATIC = "static"


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
    no model). Each group of equal-length clips runs as one lockstep
    ``rollout``, so the report equals pooling one rollout per clip.
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
        for length in {clip.num_frames for clip in clips}:
            group = [k for k, clip in enumerate(clips) if clip.num_frames == length]
            for k, states in zip(group, rollout(model, [clips[k] for k in group], mode)[0]):
                forecasts[k] = states
    acc = MetricAccumulator()
    for clip, states in zip(clips, forecasts):
        acc.add_clip(states, clip.gt[1:], clip.gt_joints[1:])
    return acc.report()
