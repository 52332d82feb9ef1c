"""Training loop: determinism, update count, schedule, and the lockstep
streams' visits and windows."""

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
from sfhand import train as train_module
from sfhand.train import AdamW, batch_loss, lr_at, train

TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8, text_len=4,
            memory_size=8, text_layers=1, hand_layers=1, decoder_layers=1, batch=4)
# 3 clips of 6 frames: 5 forecast steps per visit, dealt to 4 streams, so
# a clip can be visited by two streams at once
CLIPS = (generate_synthetic(11, "reach", 2, frames=6, raster=16, pose_dim=6)
         + generate_synthetic(12, "two_hands", 1, frames=6, raster=16, pose_dim=6))


def spy_batches(monkeypatch, model):
    """Record every update's batch: its streams' (clip, frame index), the
    queue windows before the step, the hand inputs and the forecasts."""
    calls = []

    def spy(model_, streams, hands, queue):
        window = queue.window.copy()
        loss, breakdown, decoded = batch_loss(model_, streams, hands, queue)
        with model.tape.no_record():
            forecasts = [model.select_hands(decoded.frame(b)) for b in range(len(streams))]
        calls.append(dict(streams=list(streams), window=window, hands=list(hands),
                          forecasts=forecasts, outputs=decoded.stacked_values()))
        return loss, breakdown, decoded

    monkeypatch.setattr(train_module, "batch_loss", spy)
    return calls


def dealt_visits(calls):
    """The clips in the order the streams were dealt them."""
    return [clip for call in calls for clip, i in call["streams"] if i == 0]


def visit_order(clips, seed, count):
    """The first ``count`` visits of shuffled epochs, short clips skipped."""
    rng = np.random.default_rng(seed)
    order = []
    while len(order) < count:
        order += [clips[c] for c in rng.permutation(len(clips)) if clips[c].num_frames >= 2]
    return order[:count]


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
    # changes the inputs and the losses; the first update has no previous
    # forecast, since every stream is at its visit's first frame
    cfg = Config(**TINY, confidence_threshold=0.0)
    forced = train(ForecastModel(cfg), CLIPS, steps=2)
    sampled = train(ForecastModel(cfg.replace(scheduled_sampling=1.0)), CLIPS, steps=2)
    assert all(np.isfinite(r.total) for r in sampled)
    assert sampled[0] == forced[0]
    assert sampled[1] != forced[1]


def test_frames_follow_shuffled_visits_with_a_fresh_queue_each(monkeypatch):
    # each stream steps through one visit, one frame per update, and is
    # dealt the next visit in shuffled epoch order when it finishes; its
    # window starts empty and grows by one entry per step
    cfg = Config(**TINY)
    model = ForecastModel(cfg)
    calls = spy_batches(monkeypatch, model)
    train(model, CLIPS, steps=12)
    assert len(calls) == 12
    visits = dealt_visits(calls)
    assert [id(c) for c in visits] == [id(c) for c in visit_order(CLIPS, cfg.seed, len(visits))]
    streams = [(visits[b], 0) for b in range(cfg.batch)]
    dealt = cfg.batch
    for call in calls:
        assert [(id(c), i) for c, i in call["streams"]] == [(id(c), i) for c, i in streams]
        assert call["window"].tolist() == [min(i, cfg.memory_size) for _, i in streams]
        for b, (clip, i) in enumerate(streams):
            streams[b] = (clip, i + 1)
            if i + 2 == clip.num_frames:
                streams[b], dealt = (visits[dealt], 0), dealt + 1
    assert dealt > 2 * cfg.batch  # every stream restarted, some twice


def test_mixed_length_streams_restart_with_fresh_windows(monkeypatch):
    # clips of 4, 6 and 1 frames: the 1-frame clip has nothing to forecast
    # and is never dealt; the other two end their visits after 3 and 5
    # steps, so streams restart at different updates. With the optimizer
    # step disabled the parameters stay fixed, and every stream's outputs
    # equal a one-stream forward on a fresh queue fed its visit's frames.
    cfg = Config(**TINY, precision="float64")
    four = generate_synthetic(21, "reach", 1, frames=4, raster=16, pose_dim=6)[0]
    one = ClipSample("one", "x", CLIPS[0].frames[:1], CLIPS[0].gt[:1])
    clips = [four, one, CLIPS[2]]
    model = ForecastModel(cfg)
    monkeypatch.setattr(AdamW, "step", lambda self, grads: None)
    calls = spy_batches(monkeypatch, model)
    train(model, clips, steps=9)

    visits = dealt_visits(calls)
    assert all(clip is not one for clip in visits)
    assert [id(c) for c in visits] == [id(c) for c in visit_order(clips, cfg.seed, len(visits))]
    restarts = [{u for u, call in enumerate(calls) if call["streams"][b][1] == 0 and u > 0}
                for b in range(cfg.batch)]
    assert all(restarts) and len({min(r) for r in restarts}) > 1

    for call in calls:
        for b, (clip, i) in enumerate(call["streams"]):
            queue = model.new_queue()
            ids = tokenize_text(clip.instruction, cfg.text_len)[None]
            with model.tape.no_record():
                for k in range(i + 1):
                    decoded = model.forward_step(clip.frames[k:k + 1], [list(clip.gt[k])],
                                                 queue, instruction_ids=ids)
            npt.assert_allclose(call["outputs"][b], decoded.stacked_values()[0],
                                rtol=0, atol=1e-12)


def test_scheduled_sampling_feeds_the_previous_forecast(monkeypatch):
    # every stream past its visit's first frame is fed the forecast that
    # the last update made for it; a visit's first frame takes its truth
    cfg = Config(**TINY, confidence_threshold=0.0, scheduled_sampling=1.0,
                 precision="float64")
    model = ForecastModel(cfg)
    calls = spy_batches(monkeypatch, model)
    train(model, CLIPS, steps=7)
    fed_forecasts = 0
    for prev, call in zip([None] + calls, calls):
        for b, (clip, i) in enumerate(call["streams"]):
            fed = call["hands"][b]
            if i == 0:
                assert fed == list(clip.gt[0])
                continue
            want = prev["forecasts"][b]
            assert [h.hand_type for h in fed] == [h.hand_type for h in want]
            for got, w in zip(fed, want):
                npt.assert_allclose(got.bbox.as_array(), w.bbox.as_array(), rtol=1e-12)
                npt.assert_allclose(got.pose.theta, w.pose.theta, rtol=1e-12, atol=1e-12)
                npt.assert_allclose(got.traj.as_array(), w.traj.as_array(), rtol=1e-12)
            fed_forecasts += 1
    assert fed_forecasts > cfg.batch


# (clip, frame index) of each stream, and how many of its previous frames
# its window holds: a stream deep in its visit, one with a full window, a
# restarted stream with an empty window, and one a step into its visit
SCENE = [(0, 3), (1, 4), (2, 0), (2, 1)]
WINDOWS = [3, 4, 0, 1]


def primed_queue(model):
    """A queue over the SCENE streams whose windows hold each stream's
    WINDOWS[b] previous frames, behind entries the stream must not see."""
    queue = model.new_queue(len(SCENE))
    for k in range(4):
        inputs = []
        for b, (c, i) in enumerate(SCENE):
            j = i - 4 + k
            inputs.append((CLIPS[c], j) if j >= i - WINDOWS[b] else (CLIPS[1], 5))
        with model.tape.no_record():
            e_t, mask = model.encode_current(np.stack([clip.frames[j] for clip, j in inputs]),
                                             [list(clip.gt[j]) for clip, j in inputs])
        queue.enqueue(e_t.value, mask)
        for b, w in enumerate(WINDOWS):
            if k == 3 - w:
                queue.restart(b)
    assert queue.window.tolist() == WINDOWS
    return queue


@pytest.mark.parametrize("ablation", ({}, dict(use_memory=False), dict(use_text=False),
                                      dict(use_video=False), dict(use_hand=False)),
                         ids=("full", "no_memory", "no_text", "no_video", "no_hand"))
def test_batched_update_equals_mean_of_per_frame_steps(ablation):
    # one update over four streams with different windows against each
    # stream as a batch of one on a fresh queue holding only its window
    cfg = Config(**TINY, **ablation, precision="float64")
    model = ForecastModel(cfg)
    streams = [(CLIPS[c], i) for c, i in SCENE]
    queue = primed_queue(model)
    model.tape.reset()
    loss, _, _ = batch_loss(model, streams, [list(clip.gt[i]) for clip, i in streams], queue)
    batched = loss.item(), model.tape.backward(loss)

    losses, grads = [], {}
    for (clip, i), w in zip(streams, WINDOWS):
        alone = model.new_queue()
        for j in range(i - w, i):
            with model.tape.no_record():
                e_t, mask = model.encode_current(clip.frames[j:j + 1], [list(clip.gt[j])])
            alone.enqueue(e_t.value, mask)
        model.tape.reset()
        stream_loss, _, _ = batch_loss(model, [(clip, i)], [list(clip.gt[i])], alone)
        losses.append(stream_loss.item())
        for name, g in model.tape.backward(stream_loss).items():
            grads[name] = grads.get(name, 0.0) + g / len(streams)

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

    def queue_spy(*args):
        queues.append(new_queue(*args))
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
