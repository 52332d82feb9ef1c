"""Training loop: determinism, update count, schedule, and frame order."""

import copy

import numpy as np
import numpy.testing as npt
import pytest

from sfhand.config import Config
from sfhand.data import ClipSample, generate_synthetic
from sfhand.encoders import tokenize_text
from sfhand.errors import UsageError
from sfhand.matching import composite_loss
from sfhand.model import ForecastModel
from sfhand.train import batch_loss, lr_at, train

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
    step, remember = model.forward_step, model.memory.forward
    seen = []  # (clip, frame index, queue length before the step, update)
    records = []
    batch_hands = []  # the hand inputs of the forward_step running now

    # frames repeat within a clip, but every frame's hand states are the
    # clip's own objects, so the identity of the first one names the frame
    where = {id(clip.gt[i][0]): (c, i)
             for c, clip in enumerate(CLIPS) for i in range(clip.num_frames)}

    def step_spy(frames, hands, queues, **kw):
        batch_hands[:] = hands
        return step(frames, hands, queues, **kw)

    def memory_spy(queue, e_t, mask):
        hands = batch_hands.pop(0)
        seen.append((*where[id(hands[0])], len(queue), len(records)))
        return remember(queue, e_t, mask)

    model.forward_step, model.memory.forward = step_spy, memory_spy
    train(model, CLIPS, steps=5, on_record=records.append)

    rng = np.random.default_rng(cfg.seed)
    visits = [*rng.permutation(3), *rng.permutation(3)]
    expected = [(c, i) for c in visits for i in range(5)][:20]
    assert [(c, i) for c, i, _, _ in seen] == expected
    # a visit starts empty and its queue grows by one entry per step
    assert [n for _, _, n, _ in seen] == [i for _, i in expected]
    # the first visit's last step opens the second update with 4 entries
    assert seen[4][2:] == (4, 1)


def test_scheduled_sampling_feeds_the_previous_forecast():
    # every frame past a visit's first is fed the forecast that the
    # recorded batch made for the frame before it
    cfg = Config(**TINY, confidence_threshold=0.0, scheduled_sampling=1.0,
                 precision="float64")
    model = ForecastModel(cfg)
    step = model.forward_step
    fed, forecasts = [], []

    def spy(frames, hands, queues, **kw):
        decoded = step(frames, hands, queues, **kw)
        if model.tape.recording:  # the recorded batch
            fed.extend(hands)
            forecasts.extend(model.select_hands(decoded.frame(j)) for j in range(len(hands)))
        return decoded

    model.forward_step = spy
    train(model, CLIPS, steps=3)
    rng = np.random.default_rng(cfg.seed)
    order = [(c, i) for c in rng.permutation(3) for i in range(5)][:12]
    assert len(fed) == 12
    for k, (c, i) in enumerate(order):
        if i == 0:
            assert fed[k] == list(CLIPS[c].gt[0])
            continue
        assert [h.hand_type for h in fed[k]] == [h.hand_type for h in forecasts[k - 1]]
        for got, want in zip(fed[k], forecasts[k - 1]):
            npt.assert_allclose(got.bbox.as_array(), want.bbox.as_array(), rtol=1e-12)
            npt.assert_allclose(got.pose.theta, want.pose.theta, rtol=1e-12, atol=1e-12)
            npt.assert_allclose(got.traj.as_array(), want.traj.as_array(), rtol=1e-12)


@pytest.mark.parametrize("ablation", ({}, dict(use_memory=False), dict(use_text=False),
                                      dict(use_video=False), dict(use_hand=False)),
                         ids=("full", "no_memory", "no_text", "no_video", "no_hand"))
def test_batched_update_equals_mean_of_per_frame_steps(ablation):
    # a batch that ends one visit (frames 3, 4 of clip 0, whose queue holds
    # frames 0..2) and opens the next (frames 0, 1 of clip 2)
    cfg = Config(**TINY, **ablation, precision="float64")
    model = ForecastModel(cfg)
    primed = model.new_queue()
    with model.tape.no_record():
        e_t, mask = model.encode_current(CLIPS[0].frames[:3], CLIPS[0].gt[:3])
    for i in range(3):
        primed.enqueue(e_t.value[i], mask[i])

    def batch_with_fresh_queues():
        old, new = copy.deepcopy(primed), model.new_queue()
        return [(CLIPS[0], 3, old), (CLIPS[0], 4, old), (CLIPS[2], 0, new), (CLIPS[2], 1, new)]

    batch = batch_with_fresh_queues()
    model.tape.reset()
    loss, _ = batch_loss(model, batch, [list(clip.gt[i]) for clip, i, _ in batch])
    batched = loss.item(), model.tape.backward(loss)

    losses, grads = [], {}
    for clip, i, queue in batch_with_fresh_queues():  # each frame as a batch of one
        model.tape.reset()
        ids = tokenize_text(clip.instruction, cfg.text_len)
        decoded = model.forward_step(clip.frames[i:i + 1], [list(clip.gt[i])], [queue],
                                     instruction_ids=ids[None])
        frame_loss = composite_loss(decoded, [clip.gt[i + 1]], cfg)[0]
        losses.append(frame_loss.item())
        for name, g in model.tape.backward(frame_loss).items():
            grads[name] = grads.get(name, 0.0) + g / len(batch)

    assert batched[0] == pytest.approx(np.mean(losses), rel=1e-12)
    for name, g in grads.items():
        npt.assert_allclose(batched[1][name], g, rtol=0, atol=1e-12 * np.abs(g).max(),
                            err_msg=name)
