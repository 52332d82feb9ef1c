"""Benchmark construction and dataset-level evaluation.

The synthetic benchmark is a fixed-composition mix of scenarios: 64
training clips (20 reach, 20 pick-and-return, 12 two-hands, 12 idle) and
16 held-out clips (8 reach, 8 pick-and-return) drawn from a disjoint seed
stream. Evaluation fans clips out to worker threads when asked; each
worker gets its own model replica sharing the same parameter values, so
results are independent of the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .data import ClipSample, generate_synthetic
from .metrics import MetricAccumulator, MetricReport
from .model import ForecastModel
from .stream import ORACLE, SELF_FEED, rollout, static_baseline

TRAIN_MIX = (("reach", 20), ("pick_and_return", 20), ("two_hands", 12), ("idle", 12))
EVAL_MIX = (("reach", 8), ("pick_and_return", 8))
_EVAL_SEED_OFFSET = 0x5EED_0FF5E7


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


def _replica(model: ForecastModel) -> ForecastModel:
    twin = ForecastModel(model.cfg)
    for name, p in model.tape.params.items():
        twin.tape.set_param(name, p.value.copy())
    return twin


def _merge(parts: list[MetricAccumulator]) -> MetricAccumulator:
    merged = MetricAccumulator()
    for acc in parts:
        merged.displacements.extend(acc.displacements)
        merged.finals.extend(acc.finals)
        merged.jpes.extend(acc.jpes)
        merged.pa_jpes.extend(acc.pa_jpes)
        merged.recalled += acc.recalled
        merged.gt_total += acc.gt_total
        merged.frames += acc.frames
    return merged


def _clip_accumulator(model, clip, mode) -> MetricAccumulator:
    acc = MetricAccumulator()
    if mode == "static":
        forecasts, _ = static_baseline(clip)
    else:
        forecasts, _, _ = rollout(model, clip, mode=mode)
    acc.add_clip(forecasts, clip.gt[1:], clip.gt_joints[1:])
    return acc


def evaluate_model(model: ForecastModel | None, clips: list[ClipSample], mode: str,
                   *, workers: int = 1) -> MetricReport:
    """Aggregate rollout metrics over a clip set.

    ``mode``: 'self', 'oracle', or 'static' (the latter needs no model).
    """
    if mode not in (SELF_FEED, ORACLE, "static"):
        raise ValueError(f"unknown eval mode {mode!r}")
    if mode != "static" and model is None:
        raise ValueError("model required unless mode is 'static'")
    if workers <= 1 or mode == "static" or len(clips) <= 1:
        parts = [_clip_accumulator(model, c, mode) for c in clips]
        return _merge(parts).report()

    workers = min(workers, len(clips))
    replicas = [_replica(model) for _ in range(workers)]
    results: list[MetricAccumulator | None] = [None] * len(clips)

    def run_shard(w: int):
        for idx in range(w, len(clips), workers):
            results[idx] = _clip_accumulator(replicas[w], clips[idx], mode)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run_shard, range(workers)))
    return _merge([r for r in results if r is not None]).report()
