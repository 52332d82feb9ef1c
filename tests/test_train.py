"""Training loop: determinism, update count, schedule, and frame order."""

import numpy as np
import pytest

from sfhand.config import Config
from sfhand.data import ClipSample, generate_synthetic
from sfhand.errors import UsageError
from sfhand.model import ForecastModel
from sfhand.train import lr_at, train

TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8, text_len=4,
            memory_size=8, text_layers=1, hand_layers=1, decoder_layers=1, batch=4)
# 3 clips of 6 frames: 5 forecast steps per visit, so with batch 4 visits
# and updates do not line up
CLIPS = (generate_synthetic(11, "reach", 2, frames=6, raster=16, pose_dim=6)
         + generate_synthetic(12, "two_hands", 1, frames=6, raster=16, pose_dim=6))


def test_same_seed_same_records():
    cfg = Config(**TINY)
    a = train(ForecastModel(cfg), CLIPS, steps=3)
    b = train(ForecastModel(cfg), CLIPS, steps=3)
    assert len(a) == 3 and [r.step for r in a] == [1, 2, 3]
    assert a == b


def test_zero_steps_returns_nothing():
    calls = []
    assert train(ForecastModel(Config(**TINY)), CLIPS, steps=0, on_record=calls.append) == []
    assert calls == []


def test_training_reduces_the_loss():
    records = train(ForecastModel(Config(**TINY)), CLIPS, steps=40)
    first = np.mean([r.total for r in records[:5]])
    last = np.mean([r.total for r in records[-5:]])
    assert last < 0.8 * first, (first, last)


def test_no_trainable_frame_is_a_usage_error():
    model = ForecastModel(Config(**TINY))
    with pytest.raises(UsageError):
        train(model, [], steps=1)
    one_frame = ClipSample("one", "x", CLIPS[0].frames[:1], CLIPS[0].gt[:1])
    with pytest.raises(UsageError):
        train(model, [one_frame], steps=1)


def test_lr_schedule():
    cfg = Config(learning_rate=1e-3)
    total = 105  # warmup int(0.05 * 105) = 5 updates, then 100 of cosine
    assert lr_at(cfg, 0, total) == pytest.approx(2e-4)
    assert lr_at(cfg, 4, total) == pytest.approx(1e-3)
    assert lr_at(cfg, 55, total) == pytest.approx(1e-3 * (0.02 + 0.98 * 0.5))
    assert lr_at(cfg, 104, total) > 0.02 * 1e-3
    assert lr_at(cfg, 105, total) == pytest.approx(0.02 * 1e-3)
    assert lr_at(cfg.replace(lr_schedule="constant"), 0, total) == 1e-3


def test_scheduled_sampling_feeds_predictions():
    # threshold 0: every prediction holds both hands, so feeding them back
    # changes the inputs and the losses
    cfg = Config(**TINY, confidence_threshold=0.0)
    forced = train(ForecastModel(cfg), CLIPS, steps=2)
    sampled = train(ForecastModel(cfg.replace(scheduled_sampling=1.0)), CLIPS, steps=2)
    assert all(np.isfinite(r.total) for r in sampled)
    assert sampled[0] != forced[0]


def test_frames_follow_shuffled_visits_with_a_fresh_queue_each():
    cfg = Config(**TINY)
    model = ForecastModel(cfg)
    step = model.forward_step
    seen = []  # (clip, frame index, queue length before the step, update)
    records = []

    # frames are views into their clip, so the data address names them
    where = {clip.frames[i].ctypes.data: (c, i)
             for c, clip in enumerate(CLIPS) for i in range(clip.num_frames)}

    def spy(frame, hands, queue, **kw):
        seen.append((*where[frame.ctypes.data], len(queue), len(records)))
        return step(frame, hands, queue, **kw)

    model.forward_step = spy
    train(model, CLIPS, steps=5, on_record=records.append)

    rng = np.random.default_rng(cfg.seed)
    visits = [*rng.permutation(3), *rng.permutation(3)]
    expected = [(c, i) for c in visits for i in range(5)][:20]
    assert [(c, i) for c, i, _, _ in seen] == expected
    # a visit starts empty and its queue grows by one entry per step
    assert [n for _, _, n, _ in seen] == [i for _, i in expected]
    # the first visit's last step opens the second update with 4 entries
    assert seen[4][2:] == (4, 1)
