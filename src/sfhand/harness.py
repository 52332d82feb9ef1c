"""Benchmark construction and dataset-level evaluation.

The synthetic benchmark is a fixed-composition mix of scenarios: 64
training clips (20 reach, 20 pick-and-return, 12 two-hands, 12 idle) and
16 held-out clips (8 reach, 8 pick-and-return) drawn from a disjoint seed
stream. Evaluation rolls the clips out one after another in a single
loop and pools every clip's metrics into one accumulator.
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
    """Pool rollout metrics over a clip set, scoring each clip once.

    ``mode``: 'self', 'oracle', or 'static' (the latter needs no model).
    Clips run serially; ``workers`` is accepted only as 1.
    """
    if workers != 1:
        raise UsageError(f"evaluation is serial; workers must be 1, got {workers}")
    if mode not in (SELF_FEED, ORACLE, STATIC):
        raise UsageError(f"unknown eval mode {mode!r}")
    if mode != STATIC and model is None:
        raise UsageError("model required unless mode is 'static'")
    acc = MetricAccumulator()
    for clip in clips:
        if mode == STATIC:
            forecasts = static_baseline(clip)
        else:
            forecasts, _ = rollout(model, clip, mode=mode)
        acc.add_clip(forecasts, clip.gt[1:], clip.gt_joints[1:])
    return acc.report()
