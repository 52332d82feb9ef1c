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
from sfhand.stream import ORACLE, Session
from sfhand.train import AdamW, batch_loss, lr_at, train

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

    def memory_spy(queue, e_t):
        hands = batch_hands.pop(0)
        seen.append((*where[id(hands[0])], len(queue), len(records)))
        return remember(queue, e_t)

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


def reference_adamw(values, grad_steps, lrs, wd, b1=0.9, b2=0.999, eps=1e-8):
    """AdamW one parameter at a time in float64, each update stored back in
    the parameter's dtype: bias-corrected moments, and decay only on
    matrices and tables (ndim >= 2)."""
    m = {k: np.zeros(p.shape) for k, p in values.items()}
    v = {k: np.zeros(p.shape) for k, p in values.items()}
    values = dict(values)
    for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        for k, p in values.items():
            g = grads[k].astype(np.float64)
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat = m[k] / (1 - b1**t)
            vhat = v[k] / (1 - b2**t)
            new = p.astype(np.float64) - lr * mhat / (np.sqrt(vhat) + eps)
            if wd > 0 and p.ndim >= 2:
                new -= lr * wd * p.astype(np.float64)
            values[k] = new.astype(p.dtype)
    return values


# float32 moments and arithmetic against the float64 formula: 4 float32
# ulps at the largest |parameter| (about 1.2); 2 ulps, 2.4e-7, measured
@pytest.mark.parametrize("precision, atol", [("float64", 1e-12), ("float32", 5e-7)])
def test_adamw_matches_the_per_parameter_float64_formula(precision, atol):
    model = ForecastModel(Config(**TINY, precision=precision))
    params = model.tape.params
    start = {k: p.value.copy() for k, p in params.items()}
    rng = np.random.default_rng(5)
    lrs = (1e-3, 3e-3, 2e-3, 5e-4, 1e-3)
    # each parameter's gradients at its own scale, 1e-4 to 1e-1
    grad_steps = [{k: (rng.standard_normal(p.shape) * 10.0 ** -rng.integers(1, 5)).astype(p.dtype)
                   for k, p in start.items()} for _ in lrs]
    optimizer = AdamW(model, lr=lrs[0], weight_decay=0.1)
    for grads, lr in zip(grad_steps, lrs):
        optimizer.lr = lr
        optimizer.step(grads)
    assert optimizer.m.dtype == optimizer.v.dtype == np.dtype(precision)
    want = reference_adamw(start, grad_steps, lrs, wd=0.1)
    for name, p in params.items():
        assert p.value.dtype == np.dtype(precision)
        npt.assert_allclose(p.value, want[name], rtol=0, atol=atol, err_msg=name)


def test_adamw_never_decays_vectors_or_scalars():
    model = ForecastModel(Config(**TINY, precision="float64"))
    params = model.tape.params
    start = {k: p.value.copy() for k, p in params.items()}
    assert {p.ndim for p in start.values()} == {0, 1, 2}
    assert start["memory.alpha"].ndim == 0
    optimizer = AdamW(model, lr=0.1, weight_decay=0.5)
    for _ in range(3):  # zero gradients: decay is the only change
        optimizer.step({k: np.zeros_like(p) for k, p in start.items()})
    for name, p in params.items():
        if p.value.ndim >= 2:
            npt.assert_allclose(p.value, start[name] * 0.95**3, rtol=1e-14, err_msg=name)
        else:
            npt.assert_array_equal(p.value, start[name], err_msg=name)


def test_train_twice_repacks_nothing():
    model = ForecastModel(Config(**TINY))
    params = model.tape.params.values()
    train(model, CLIPS, steps=1)
    buf, arrays = model.tape.buffer, [p.value for p in params]
    before = buf.copy()
    train(model, CLIPS, steps=1)
    assert model.tape.buffer is buf
    assert all(p.value is a for p, a in zip(params, arrays))
    assert not np.array_equal(buf, before)


def test_nothing_kept_across_an_update_aliases_the_buffer():
    # the optimizer updates the buffer in place, so a view of it kept
    # across an update would silently change; with the memory bias off,
    # memory.alpha takes no gradient and backward fills in its zeros
    model = ForecastModel(Config(**TINY, memory_mode="off"))
    queues, grads = [], []
    new_queue, backward = model.new_queue, model.tape.backward

    def queue_spy():
        queues.append(new_queue())
        return queues[-1]

    def backward_spy(loss):
        grads.append(backward(loss))
        return grads[-1]

    model.new_queue, model.tape.backward = queue_spy, backward_spy
    session = Session(model, CLIPS[0].instruction, mode=ORACLE)
    session.step(CLIPS[0].frames[0], CLIPS[0].gt[0])
    train(model, CLIPS, steps=1)
    kept = [session.instruction_values, *grads[0].values()]
    kept += [a for q in queues for e in q.entries for a in (e.embedding, e.roi_mask)]
    assert len(grads) == 1 and len(kept) > 1 + len(grads[0])
    buf = model.tape.buffer
    assert all(not np.shares_memory(a, buf) for a in kept)
