"""Held-out evaluation: equal-length clips run as lockstep batches of at
most ``EVAL_STREAMS``, and each clip is scored once, in input order."""

import math

import numpy as np
import pytest

from sfhand.config import Config
from sfhand.data import generate_synthetic
from sfhand.errors import UsageError
from sfhand import harness
from sfhand.harness import EVAL_STREAMS, build_benchmark, evaluate_model
from sfhand.metrics import MetricAccumulator
from sfhand.model import ForecastModel
from sfhand.stream import ORACLE, SELF_FEED, rollout, static_baseline

# threshold 0 so the untrained model emits hands and every metric is scored
TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8,
            text_len=4, memory_size=2, confidence_threshold=0.0)
CLIPS = (generate_synthetic(5, "reach", 2, frames=4, raster=16, pose_dim=6)
         + generate_synthetic(6, "two_hands", 1, frames=4, raster=16, pose_dim=6))


def pooled_rollouts(model, clips, mode):
    acc = MetricAccumulator()
    for clip in clips:
        acc.add_clip(rollout(model, [clip], mode=mode)[0][0], clip.gt[1:], clip.gt_joints[1:])
    return acc.report()


@pytest.mark.parametrize("mode", (SELF_FEED, ORACLE))
def test_report_equals_one_accumulator_over_rollouts(mode):
    # the three equal-length clips run as one three-stream batch, and the
    # report equals pooling one single-clip rollout per clip exactly. The
    # background logit sits 4 below the hand logits, so at threshold 0.5
    # some steps emit hands and some do not.
    for threshold in (0.0, 0.5):
        model = ForecastModel(Config(**TINY).replace(confidence_threshold=threshold))
        model.tape.set_param("decoder.head_type.b", np.array([1.0, 1.0, -3.0]))
        expected = pooled_rollouts(model, CLIPS, mode)
        assert 0 < expected.hands
        assert threshold == 0.0 or expected.hands < 2 * expected.frames
        assert evaluate_model(model, CLIPS, mode) == expected


def test_equal_length_clips_roll_out_in_batches_of_eval_streams(monkeypatch):
    # 20 equal-length clips: a batch of 16, then one of 4, and the report
    # equals pooling one single-clip rollout per clip
    clips = generate_synthetic(7, "reach", 20, frames=3, raster=16, pose_dim=6)
    model = ForecastModel(Config(**TINY))
    batches = []

    def spy(model_, batch, mode):
        batches.append([id(c) for c in batch])
        return rollout(model_, batch, mode)

    monkeypatch.setattr(harness, "rollout", spy)
    assert EVAL_STREAMS == 16
    for mode in (SELF_FEED, ORACLE):
        batches.clear()
        report = evaluate_model(model, clips, mode)
        assert batches == [[id(c) for c in clips[:16]], [id(c) for c in clips[16:]]]
        assert report.hands > 0
        assert report == pooled_rollouts(model, clips, mode)


@pytest.mark.parametrize("mode", (SELF_FEED, "static"))
def test_each_clip_scored_once(mode, monkeypatch):
    calls = []
    original = MetricAccumulator.add_clip

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MetricAccumulator, "add_clip", counted)
    model = ForecastModel(Config(**TINY)) if mode == SELF_FEED else None
    evaluate_model(model, CLIPS, mode)
    assert len(calls) == len(CLIPS)


def test_static_mode_needs_no_model():
    report = evaluate_model(None, CLIPS, "static")
    acc = MetricAccumulator()
    for clip in CLIPS:
        acc.add_clip(static_baseline(clip), clip.gt[1:], clip.gt_joints[1:])
    assert report.to_dict() == acc.report().to_dict()
    assert report.frames == sum(c.num_frames - 1 for c in CLIPS)


def test_bad_arguments_raise_usage_error():
    model = ForecastModel(Config(**TINY))
    with pytest.raises(UsageError):
        evaluate_model(model, CLIPS, SELF_FEED, workers=2)
    with pytest.raises(UsageError):
        evaluate_model(model, CLIPS, "nope")
    with pytest.raises(UsageError):
        evaluate_model(None, CLIPS, SELF_FEED)


@pytest.mark.parametrize("mode", (SELF_FEED, ORACLE))
def test_untrained_model_reports_nan_not_a_perfect_score(mode):
    # At threshold 0.5 the untrained model emits no hand, so nothing is
    # scored; an empty pool once read as ADE 0.0, a perfect score.
    held = build_benchmark(0, raster=32)[1][:2]
    report = evaluate_model(ForecastModel(Config(raster=32)), held, mode)
    assert report.hands == 0 and report.frames == 30
    for value in (report.ade_cm, report.fde_cm, report.jpe_cm, report.pa_jpe_cm):
        assert math.isnan(value)
    assert report.coverage == 0.0 and report.recall_at_05 == 0.0
