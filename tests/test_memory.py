"""FIFO queue semantics, the ROI mask ``encode_current`` builds, and bias-mode behavior."""

import functools

import numpy as np
import numpy.testing as npt
import pytest

from sfhand import tensor as T
from sfhand.config import KEY_BROADCAST, OFF, Config
from sfhand.errors import DimensionError, UsageError
from sfhand.hand import BBox, HandPose, HandState, HandType, Trajectory3D
from sfhand.memory import MemoryLayer, MemoryQueue
from sfhand.model import ForecastModel


def cfg_8x8(**kw):
    base = dict(d=8, heads=2, pose_dim=6, num_queries=2, raster=64, patch=8,
                text_len=4, memory_size=3)
    base.update(kw)
    return Config(**base)


def state(cx, cy, w, h, ht=HandType.LEFT, visible=True):
    return HandState(ht, BBox(cx, cy, w, h), HandPose(np.zeros(6)),
                     Trajectory3D(0, 0, 10), visible)


def roi_mask_oracle(states, cfg):
    """The mask as one loop over one frame's hand states: a visual token
    is set iff its patch rectangle overlaps a visible hand's box with
    positive area, a hand token iff its hand is visible."""
    parts = []
    visible = [s for s in states if s.visible]
    if cfg.use_video:
        g = cfg.grid
        edges = np.arange(g + 1) / g
        vis_mask = np.zeros(g * g, dtype=np.uint8)
        for s in visible:
            x1, y1, x2, y2 = s.bbox.corners()
            rows = np.minimum(y2, edges[1:]) - np.maximum(y1, edges[:-1]) > 0
            cols = np.minimum(x2, edges[1:]) - np.maximum(x1, edges[:-1]) > 0
            vis_mask |= np.outer(rows, cols).ravel()
        parts.append(vis_mask)
    if cfg.use_hand:
        hand_mask = np.zeros(2, dtype=np.uint8)
        for s in visible:
            hand_mask[s.hand_type.value] = 1
        parts.append(hand_mask)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)


@functools.lru_cache(maxsize=None)
def model_for(cfg):
    return ForecastModel(cfg)


def roi_masks(hands, cfg):
    """(B, n) masks that ``encode_current`` builds for B frames' hands."""
    frames = np.zeros((len(hands), cfg.raster, cfg.raster, 3))
    with model_for(cfg).tape.no_record():
        return model_for(cfg).encode_current(frames, hands)[1]


def roi_mask(states, cfg):
    return roi_masks([states], cfg)[0]


MODALITIES = [dict(use_video=v, use_hand=h) for v in (True, False) for h in (True, False)]


class TestRoiMask:
    def test_full_image_box_sets_all_visual(self):
        cfg = cfg_8x8()
        m = roi_mask([state(0.5, 0.5, 1.0, 1.0)], cfg)
        assert m.shape == (66,) and m.dtype == np.uint8
        assert m[:64].sum() == 64
        assert m[64] == 1 and m[65] == 0  # left visible, right absent

    def test_no_visible_hands_all_zero(self):
        cfg = cfg_8x8()
        npt.assert_array_equal(roi_mask([], cfg), np.zeros(66, dtype=np.uint8))
        npt.assert_array_equal(
            roi_mask([state(0.5, 0.5, 0.5, 0.5, visible=False)], cfg),
            np.zeros(66, dtype=np.uint8),
        )

    def test_exact_patch_rectangle_sets_one_entry(self):
        cfg = cfg_8x8()
        # patch (0,0) covers x,y in [0, 1/8]; center that box exactly on it
        m = roi_mask([state(1 / 16, 1 / 16, 1 / 8, 1 / 8)], cfg)
        assert m[0] == 1
        assert m[1:64].sum() == 0

    def test_boundary_touch_has_zero_area_overlap(self):
        cfg = cfg_8x8()
        # box exactly on the seam between patches 0 and 1: zero-area overlap
        # with patch 1 must not set it
        m = roi_mask([state(1 / 16, 1 / 16, 1 / 8, 1 / 8)], cfg)
        assert m[1] == 0

    def test_two_hands_union(self):
        cfg = cfg_8x8()
        m = roi_mask(
            [state(1 / 16, 1 / 16, 1 / 8, 1 / 8),
             state(15 / 16, 15 / 16, 1 / 8, 1 / 8, ht=HandType.RIGHT)],
            cfg,
        )
        assert m[0] == 1 and m[63] == 1
        assert m[64] == 1 and m[65] == 1

    def test_layout_follows_modality_flags(self):
        assert roi_mask([], cfg_8x8(use_video=False)).shape == (2,)
        assert roi_mask([], cfg_8x8(use_hand=False)).shape == (64,)
        assert roi_mask([], cfg_8x8(use_video=False, use_hand=False)).shape == (0,)

    @pytest.mark.parametrize("patch", (8, 16))
    @pytest.mark.parametrize("flags", MODALITIES, ids=str)
    def test_equals_the_per_state_loop(self, flags, patch):
        # random boxes, boxes whose edges sit on patch seams, boxes that
        # hang off the frame, and 15% invisible hands
        cfg = cfg_8x8(patch=patch, **flags)
        g = cfg.grid
        rng = np.random.default_rng(patch)
        hands = []
        for _ in range(600):
            states = []
            for ht in rng.permutation([HandType.LEFT, HandType.RIGHT])[:rng.integers(0, 3)]:
                kind = rng.integers(0, 3)
                if kind == 0:
                    cx, cy = rng.uniform(0, 1, 2)
                    w, h = rng.uniform(1e-3, 1, 2)
                elif kind == 1:
                    (x1, x2), (y1, y2) = (np.sort(rng.choice(g + 1, 2, replace=False)) / g
                                          for _ in range(2))
                    cx, cy, w, h = (x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1
                else:
                    cx, cy = rng.choice([0.0, 1.0], 2)
                    w, h = rng.integers(1, g + 1, 2) / g
                states.append(state(cx, cy, w, h, ht=ht, visible=rng.random() > 0.15))
            hands.append(states)
        want = np.stack([roi_mask_oracle(states, cfg) for states in hands])
        npt.assert_array_equal(roi_masks(hands, cfg), want)
        assert want.size == 0 or (want.any() and not want.all())

    @pytest.mark.parametrize("flags", MODALITIES, ids=str)
    def test_duplicate_or_non_hand_type_rejected(self, flags):
        # the hands enter the model once, so the check holds whichever
        # modalities are on; with use_hand=False it used to pass silently
        cfg = cfg_8x8(**flags)
        frames = np.zeros((1, 64, 64, 3))
        bad = ([state(0.5, 0.5, 0.2, 0.2), state(0.2, 0.2, 0.1, 0.1)],
               [state(0.5, 0.5, 0.2, 0.2), state(0.2, 0.2, 0.1, 0.1, visible=False)],
               [state(0.5, 0.5, 0.2, 0.2, ht=HandType.BACKGROUND)])
        for states in bad:
            with pytest.raises(UsageError, match="duplicate|non-hand"):
                model_for(cfg).encode_current(frames, [[], states])


class TestQueue:
    def make(self, capacity=3, streams=2):
        return MemoryQueue(capacity=capacity, token_count=4, dim=8, streams=streams)

    def entry(self, fill, streams=2):
        return np.full((streams, 4, 8), float(fill)), np.tile([1, 0, 0, 1], (streams, 1))

    def test_fifo_eviction(self):
        q = self.make(3)
        for i in range(1, 5):
            q.enqueue(*self.entry(i))
        assert len(q) == 3
        assert [e.embedding[1, 0, 0] for e in q.entries] == [2.0, 3.0, 4.0]
        assert q.entries[0].embedding.shape == (2, 4, 8)
        assert q.entries[0].roi_mask.shape == (2, 4)

    def test_push_onto_empty(self):
        q = self.make()
        q.enqueue(*self.entry(1))
        assert len(q) == 1
        npt.assert_array_equal(q.window, [1, 1])

    def test_capacity_bound_many_pushes(self):
        q = self.make(3)
        for i in range(1000):
            q.enqueue(*self.entry(i))
        assert len(q) == 3
        npt.assert_array_equal(q.window, [3, 3])

    def test_restart_empties_one_window_and_keeps_the_entries(self):
        q = self.make(3, streams=3)
        for i in range(2):
            q.enqueue(*self.entry(i, streams=3))
        q.restart(1)
        assert len(q) == 2
        npt.assert_array_equal(q.window, [2, 0, 2])
        for i in range(2, 5):
            q.enqueue(*self.entry(i, streams=3))
            assert q.window[1] == i - 1
        npt.assert_array_equal(q.window, [3, 3, 3])

    def test_layout_mismatch(self):
        q = self.make()
        with pytest.raises(DimensionError):
            q.enqueue(np.zeros((2, 5, 8)), np.zeros((2, 5)))
        with pytest.raises(DimensionError):
            q.enqueue(np.zeros((2, 4, 8)), np.zeros((2, 3)))
        with pytest.raises(DimensionError):  # one stream's entry in a queue of two
            q.enqueue(np.zeros((1, 4, 8)), np.zeros((1, 4)))
        with pytest.raises(UsageError):
            q.enqueue(np.zeros((2, 4, 8)), np.full((2, 4), 0.5))
        with pytest.raises(UsageError):
            MemoryQueue(capacity=3, token_count=4, dim=8, streams=0)


class LayerFixture:
    """A memory layer and its seeded inputs; fixtures built with the same
    seed draw identical queues and tokens whatever their ``mode``."""

    def __init__(self, seed=0, dtype="float64", cfg=None, mode=None):
        self.cfg = cfg or Config(d=8, heads=1, pose_dim=6, num_queries=2, raster=16,
                                 patch=8, text_len=4, memory_size=4, memory_heads=1)
        if mode is not None:
            self.cfg = self.cfg.replace(memory_mode=mode)
        self.tape = T.Tape(dtype)
        self.layer = MemoryLayer(self.tape, self.cfg)
        self.rng = np.random.default_rng(seed)
        self.tok = self.cfg.memory_token_count()

    def queue_with(self, n_entries, mask=None, streams=1):
        q = MemoryQueue(capacity=self.cfg.memory_size, token_count=self.tok, dim=8,
                        streams=streams)
        for _ in range(n_entries):
            m = self.rng.integers(0, 2, (streams, self.tok)) if mask is None else mask
            q.enqueue(self.rng.normal(0, 1, (streams, self.tok, 8)), m)
        return q

    def tokens(self, streams=1):
        return self.tape.constant(self.rng.normal(0, 1, (streams, self.tok, 8)))

    def set_alpha(self, v):
        self.tape.set_param("memory.alpha", np.asarray(float(v)))


def flat_keys(queue, stream=0):
    """Stream ``stream``'s (L·n, d) keys and (L·n,) masks, oldest first."""
    return (np.concatenate([e.embedding[stream] for e in queue.entries]),
            np.concatenate([e.roi_mask[stream] for e in queue.entries]))


def outputs_by_mode(modes, seed, alpha, entries):
    """Layer outputs under each mode, on identical seeded queue and tokens,
    with every current token inside the ROI mask."""
    outs = []
    for mode in modes:
        f = LayerFixture(seed=seed, mode=mode)
        f.set_alpha(alpha)
        q = f.queue_with(entries)
        outs.append(f.layer.forward(q, f.tokens()).value)
    return outs


class TestMemoryForward:
    def test_empty_queue_identity(self):
        f = LayerFixture()
        e = f.tokens()
        out = f.layer.forward(f.queue_with(0), e)
        npt.assert_array_equal(out.value, e.value)

    def test_attention_rows_sum_to_one_implicitly(self):
        # output minus residual must be a convex combination of queue values:
        # check by attending into a queue of identical rows
        f = LayerFixture(mode=OFF)
        q = MemoryQueue(capacity=4, token_count=f.tok, dim=8)
        row = f.rng.normal(0, 1, 8)
        q.enqueue(np.tile(row, (1, f.tok, 1)), np.zeros((1, f.tok)))
        e = f.tokens()
        out = f.layer.forward(q, e)
        npt.assert_allclose(out.value - e.value, np.tile(row, (1, f.tok, 1)), atol=1e-12)

    def test_literal_mode_equals_off_for_any_alpha(self):
        # alpha times a mask over query rows, broadcast along each row, is
        # a constant per softmax row, so it cannot move the attention
        f = LayerFixture(seed=1)
        kv = flat_keys(f.queue_with(3))[0]
        e = f.tokens()[0]
        q_mask = f.rng.integers(0, 2, (f.tok, 1)).astype(np.float64)
        off = T.attend(e, kv, kv, f.cfg.memory_heads).value
        for alpha in (0.0, 1.0, 10.0, 50.0):
            lit = T.attend(e, kv, kv, f.cfg.memory_heads, bias=alpha * q_mask).value
            npt.assert_allclose(lit, off, atol=1e-12)

    def test_all_modes_agree_at_alpha_zero(self):
        outs = outputs_by_mode((OFF, KEY_BROADCAST), seed=2, alpha=0.0, entries=2)
        npt.assert_array_equal(outs[0], outs[1])

    def test_key_broadcast_concentrates_on_single_masked_key(self):
        f = LayerFixture(seed=3, mode=KEY_BROADCAST)
        f.set_alpha(50.0)
        mask = np.zeros((1, f.tok), dtype=np.uint8)
        mask[0, 1] = 1  # exactly one masked key token in the single entry
        q = f.queue_with(1, mask=mask)
        e = f.tokens()
        out = f.layer.forward(q, e)
        # reconstruct attention weights directly from the softmax oracle
        keys, masks = flat_keys(q)
        scores = (e.value[0] @ keys.T) / np.sqrt(8) + 50.0 * masks
        w = np.exp(scores - scores.max(1, keepdims=True))
        w /= w.sum(1, keepdims=True)
        assert w[:, 1].min() >= 0.999
        npt.assert_allclose(out.value[0], e.value[0] + w @ keys, atol=1e-10)

    def test_key_broadcast_monotone_in_alpha(self):
        f = LayerFixture(seed=4)
        mask = np.zeros((1, f.tok), dtype=np.uint8)
        mask[0, 0] = 1
        q = f.queue_with(2, mask=mask)
        e = f.tokens().value[0]
        keys, masks = flat_keys(q)
        prev = None
        for alpha in (0.0, 0.5, 1.0, 2.0, 5.0):
            scores = (e @ keys.T) / np.sqrt(8) + alpha * masks
            w = np.exp(scores - scores.max(1, keepdims=True))
            w /= w.sum(1, keepdims=True)
            mass = w[:, masks == 1].sum(axis=1)
            if prev is not None:
                assert np.all(mass > prev)
            prev = mass

    def test_mode_validation_and_shape_checks(self):
        with pytest.raises(UsageError):
            Config(memory_mode="nope")
        with pytest.raises(UsageError):  # the row bias was a no-op, and is gone
            Config.from_json('{"memory_mode": "query_broadcast_literal"}')
        f = LayerFixture()
        with pytest.raises(DimensionError):
            f.layer.forward(f.queue_with(1), f.tape.constant(np.zeros((1, f.tok - 1, 8))))
        with pytest.raises(DimensionError):  # two streams' tokens, a queue of one
            f.layer.forward(f.queue_with(1), f.tokens(streams=2))

    def test_alpha_preserved_across_reset(self):
        f = LayerFixture()
        f.set_alpha(7.5)
        f.queue_with(3)
        q = f.queue_with(0)
        assert float(f.layer.alpha.value) == 7.5
        out = f.layer.forward(q, f.tokens())
        assert len(q) == 0 and out is not None

    def test_multihead_memory_flag(self):
        cfg = Config(d=8, heads=1, pose_dim=6, num_queries=2, raster=16, patch=8,
                     text_len=4, memory_size=4, memory_heads=2)
        f = LayerFixture(seed=5, cfg=cfg)
        out = f.layer.forward(f.queue_with(2), f.tokens())
        assert out.value.shape == (1, f.tok, 8)

    @pytest.mark.parametrize("mode", (KEY_BROADCAST, OFF))
    def test_each_stream_reads_only_its_window(self, mode):
        # streams whose visits restarted at different steps: each stream's
        # row equals a one-stream read of a queue holding only its window,
        # and a stream with an empty window passes its tokens through
        f = LayerFixture(seed=6, mode=mode)
        f.set_alpha(2.0)
        q = f.queue_with(4, streams=4)
        q.restart(1)
        q.restart(2)
        q.enqueue(f.rng.normal(0, 1, (4, f.tok, 8)), f.rng.integers(0, 2, (4, f.tok)))
        q.restart(2)
        q.restart(3)
        npt.assert_array_equal(q.window, [4, 1, 0, 0])
        e = f.tokens(streams=4)
        out = f.layer.forward(q, e).value
        for b, w in enumerate(q.window):
            alone = MemoryQueue(capacity=4, token_count=f.tok, dim=8)
            for entry in q.entries[len(q) - w:]:
                alone.enqueue(entry.embedding[b:b + 1], entry.roi_mask[b:b + 1])
            want = f.layer.forward(alone, f.tape.constant(e.value[b:b + 1])).value[0]
            npt.assert_allclose(out[b], want, rtol=0, atol=1e-12)
        npt.assert_array_equal(out[2:], e.value[2:])
