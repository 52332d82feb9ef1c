"""Tokenizer and encoder behavior: shapes, masking, determinism."""

import numpy as np
import numpy.testing as npt
import pytest

from sfhand import blocks
from sfhand.config import Config
from sfhand.encoders import BOS_ID, PAD_ID, hand_slots, tokenize_text
from sfhand.errors import DimensionError, UsageError
from sfhand.hand import BBox, HandPose, HandState, HandType, Trajectory3D
from sfhand.model import ForecastModel


def tiny_cfg(**kw):
    base = dict(d=16, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8,
                text_len=8, memory_size=3)
    base.update(kw)
    return Config(**base)


def state(ht, cx=0.5, visible=True, theta=None, traj=(1.0, 2.0, 30.0)):
    return HandState(
        ht, BBox(cx, 0.5, 0.2, 0.2),
        HandPose(np.zeros(6) if theta is None else theta),
        Trajectory3D(*traj), visible,
    )


class TestTokenizer:
    def test_empty_string(self):
        ids = tokenize_text("", 16)
        assert ids[0] == BOS_ID
        assert list(ids[1:]) == [PAD_ID] * 15

    def test_ab(self):
        ids = tokenize_text("ab", 16)
        assert list(ids[:3]) == [BOS_ID, 97, 98]
        assert list(ids[3:]) == [PAD_ID] * 13

    def test_deterministic_and_truncates(self):
        a = tokenize_text("pick the object and return it", 16)
        b = tokenize_text("pick the object and return it", 16)
        npt.assert_array_equal(a, b)
        assert a.shape == (16,)


class TestTextEncoder:
    def test_output_shape(self):
        m = ForecastModel(tiny_cfg())
        out = m.text(tokenize_text("wave", 8)[None])
        assert out.value.shape == (1, 8, 16)

    def test_pad_content_does_not_leak(self):
        m = ForecastModel(tiny_cfg())
        ids = tokenize_text("hi", 8)
        base = m.text(ids[None]).value[0]
        # new PAD embedding content; random, since a constant shift of a
        # row would cancel in the layer norm
        embed = m.tape.params["text.embed"].value.copy()
        embed[PAD_ID] = np.random.default_rng(1).normal(0.0, 1.0, embed.shape[1])
        m.tape.set_param("text.embed", embed)
        out = m.text(ids[None]).value[0]
        active = int((ids != PAD_ID).sum())
        npt.assert_array_equal(out[:active], base[:active])
        assert np.abs(out[active:] - base[active:]).max() > 0  # PAD rows do move

    def test_repeated_rows_encoded_once_and_equal_their_own_encoding(self, monkeypatch):
        m = ForecastModel(tiny_cfg(precision="float64"))
        a, b = tokenize_text("wave", 8), tokenize_text("point left", 8)
        ids = np.stack([b, a, b, b, a])
        rows = []
        block = blocks.encoder_block

        def counting_block(x, *args, **kw):
            rows.append(x.value.shape[0])
            return block(x, *args, **kw)

        monkeypatch.setattr(blocks, "encoder_block", counting_block)
        out = m.text(ids).value
        assert out.shape == (5, 8, 16)
        assert rows == [2] * m.cfg.text_layers  # each block ran on the 2 distinct rows
        for j, row in enumerate(ids):
            npt.assert_allclose(out[j], m.text(row[None]).value[0], rtol=0, atol=1e-12)

    def test_wrong_length_rejected(self):
        m = ForecastModel(tiny_cfg())
        with pytest.raises(DimensionError):
            m.text(np.zeros((1, 5), dtype=np.int64))
        with pytest.raises(DimensionError):  # one input without its batch axis
            m.text(np.zeros(8, dtype=np.int64))
        with pytest.raises(UsageError):
            m.text(np.zeros((1, 8)))  # right length, float ids


class TestVisualEncoder:
    def test_token_count_and_grid_tags(self):
        m = ForecastModel(tiny_cfg())
        out = m.visual(np.zeros((2, 16, 16, 3)))
        assert out.value.shape == (2, 4, 16)

    def test_default_config_has_64_tokens(self):
        m = ForecastModel(Config())
        out = m.visual(np.zeros((1, 64, 64, 3)))
        assert out.value.shape == (1, 64, 64)

    def test_patch_reads_its_pixels_only(self):
        m = ForecastModel(tiny_cfg())
        frames = np.zeros((2, 16, 16, 3))
        frames[1, 0:8, 8:16, :] = 1.0  # frame 1, patch (0, 1)
        patches = m.visual.patches(frames)
        assert patches.shape == (2, 4, 8 * 8 * 3)
        assert patches[1, 1].sum() == 8 * 8 * 3
        assert patches.sum() == 8 * 8 * 3

    def test_constant_frame_tokens_identical_before_position(self):
        m = ForecastModel(tiny_cfg())
        patches = m.visual.patches(np.full((1, 16, 16, 3), 0.25))
        assert np.ptp(patches, axis=1).max() == 0.0

    def test_wrong_raster_rejected(self):
        m = ForecastModel(tiny_cfg())
        with pytest.raises(DimensionError):
            m.visual(np.zeros((1, 32, 32, 3)))
        with pytest.raises(DimensionError):  # one frame without its batch axis
            m.visual(np.zeros((16, 16, 3)))


class TestHandEncoder:
    @staticmethod
    def tokens(m, *hands):
        """(B, 2, d) hand tokens through the slot array."""
        return m.hand(hand_slots(hands, m.cfg.pose_dim)).value

    def test_both_invisible_gives_zero_tokens(self):
        m = ForecastModel(tiny_cfg())
        slots = hand_slots([[], [state(HandType.LEFT, visible=False)]], 6)
        npt.assert_array_equal(slots, np.zeros((2, 2, 3 + 4 + 6 + 3 + 1)))
        npt.assert_array_equal(m.hand(slots).value, np.zeros((2, 2, 16)))

    def test_invisible_slot_zero_and_independent(self):
        m = ForecastModel(tiny_cfg())
        left = state(HandType.LEFT)
        base = self.tokens(m, [left])[0]
        npt.assert_array_equal(base[1], np.zeros(16))
        # change the (invisible) right slot content; left token must not move
        with_ghost = self.tokens(m, [left, state(HandType.RIGHT, cx=0.9, visible=False)])[0]
        npt.assert_allclose(with_ghost[0], base[0], atol=1e-12)
        npt.assert_array_equal(with_ghost[1], np.zeros(16))

    def test_duplicate_type_rejected(self):
        m = ForecastModel(tiny_cfg())
        for states in ([state(HandType.LEFT), state(HandType.LEFT, cx=0.2)],
                       [state(HandType.RIGHT), state(HandType.RIGHT, visible=False)],
                       [state(HandType.BACKGROUND)]):
            with pytest.raises(UsageError):
                hand_slots([[], states], 6)
            with pytest.raises(UsageError):
                m.encode_current(np.zeros((2, 16, 16, 3)), [[], states])
        with pytest.raises(DimensionError):  # a visible hand's pose dim is checked
            hand_slots([[state(HandType.LEFT, theta=np.zeros(5))]], 6)

    def test_visible_hands_attend_each_other(self):
        m = ForecastModel(tiny_cfg())
        left = state(HandType.LEFT)
        solo, both = self.tokens(m, [left], [left, state(HandType.RIGHT, cx=0.8)])
        assert np.abs(both[0] - solo[0]).max() > 1e-9  # right now influences left

    def test_slot_rows_are_left_then_right(self):
        right, left = state(HandType.RIGHT, cx=0.8), state(HandType.LEFT, cx=0.3)
        rows = hand_slots([[right, left]], 6)[0]
        npt.assert_array_equal(rows[:, :3], [[1, 0, 0], [0, 1, 0]])  # one-hot type
        npt.assert_array_equal(rows[:, 3:7], [[0.3, 0.5, 0.2, 0.2], [0.8, 0.5, 0.2, 0.2]])
        npt.assert_array_equal(rows[:, 13:16], [[0.01, 0.02, 0.3]] * 2)  # metres
        npt.assert_array_equal(rows[:, -1], [1, 1])  # presence
        m = ForecastModel(tiny_cfg())
        with pytest.raises(DimensionError):
            m.hand(rows)  # one frame's rows without the batch axis


def test_token_count_invariant_at_defaults():
    cfg = Config()
    assert cfg.text_len + cfg.num_visual_tokens + 2 == 82


def test_encoders_deterministic():
    cfg = tiny_cfg(seed=3)
    a, b = ForecastModel(cfg), ForecastModel(cfg)
    frame = np.random.default_rng(0).uniform(0, 1, (1, 16, 16, 3))
    npt.assert_array_equal(a.visual(frame).value, b.visual(frame).value)
    ids = tokenize_text("turn the knob", 8)[None]
    npt.assert_array_equal(a.text(ids).value, b.text(ids).value)
