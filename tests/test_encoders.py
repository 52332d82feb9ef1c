"""Tokenizer and encoder behavior: shapes, masking, determinism."""

import numpy as np
import numpy.testing as npt
import pytest

from sfhand.config import Config
from sfhand.encoders import BOS_ID, PAD_ID, tokenize_text
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
        out = m.text(tokenize_text("wave", 8))
        assert out.value.shape == (8, 16)

    def test_pad_content_does_not_leak(self):
        m = ForecastModel(tiny_cfg())
        ids = tokenize_text("hi", 8)
        base = m.text(ids).value
        # new PAD embedding content; random, since a constant shift of a
        # row would cancel in the layer norm
        embed = m.tape.params["text.embed"].value.copy()
        embed[PAD_ID] = np.random.default_rng(1).normal(0.0, 1.0, embed.shape[1])
        m.tape.set_param("text.embed", embed)
        out = m.text(ids).value
        active = int((ids != PAD_ID).sum())
        npt.assert_array_equal(out[:active], base[:active])
        assert np.abs(out[active:] - base[active:]).max() > 0  # PAD rows do move

    def test_wrong_length_rejected(self):
        m = ForecastModel(tiny_cfg())
        with pytest.raises(DimensionError):
            m.text(np.zeros(5, dtype=np.int64))
        with pytest.raises(UsageError):
            m.text(np.zeros(8))  # right length, float ids


class TestVisualEncoder:
    def test_token_count_and_grid_tags(self):
        m = ForecastModel(tiny_cfg())
        out = m.visual(np.zeros((16, 16, 3)))
        assert out.value.shape == (4, 16)

    def test_default_config_has_64_tokens(self):
        m = ForecastModel(Config())
        out = m.visual(np.zeros((64, 64, 3)))
        assert out.value.shape == (64, 64)

    def test_patch_reads_its_pixels_only(self):
        m = ForecastModel(tiny_cfg())
        frame = np.zeros((16, 16, 3))
        frame[0:8, 8:16, :] = 1.0  # patch (0, 1)
        patches = m.visual.patches(frame)
        assert patches[1].sum() == 8 * 8 * 3
        assert patches[0].sum() == 0 and patches[2].sum() == 0 and patches[3].sum() == 0

    def test_constant_frame_tokens_identical_before_position(self):
        m = ForecastModel(tiny_cfg())
        patches = m.visual.patches(np.full((16, 16, 3), 0.25))
        assert np.ptp(patches, axis=0).max() == 0.0

    def test_wrong_raster_rejected(self):
        m = ForecastModel(tiny_cfg())
        with pytest.raises(DimensionError):
            m.visual(np.zeros((32, 32, 3)))


class TestHandEncoder:
    def test_both_invisible_gives_zero_tokens(self):
        m = ForecastModel(tiny_cfg())
        out = m.hand([[]]).value
        npt.assert_array_equal(out, np.zeros((1, 2, 16)))

    def test_invisible_slot_zero_and_independent(self):
        m = ForecastModel(tiny_cfg())
        left = state(HandType.LEFT)
        base = m.hand([[left]]).value[0]
        npt.assert_array_equal(base[1], np.zeros(16))
        # change the (invisible) right slot content; left token must not move
        with_ghost = m.hand([[left, state(HandType.RIGHT, cx=0.9, visible=False)]]).value[0]
        npt.assert_allclose(with_ghost[0], base[0], atol=1e-12)
        npt.assert_array_equal(with_ghost[1], np.zeros(16))

    def test_duplicate_type_rejected(self):
        m = ForecastModel(tiny_cfg())
        with pytest.raises(UsageError):
            m.hand([[state(HandType.LEFT), state(HandType.LEFT, cx=0.2)]])

    def test_visible_hands_attend_each_other(self):
        m = ForecastModel(tiny_cfg())
        left = state(HandType.LEFT)
        solo = m.hand([[left]]).value[0]
        both = m.hand([[left, state(HandType.RIGHT, cx=0.8)]]).value[0]
        assert np.abs(both[0] - solo[0]).max() > 1e-9  # right now influences left


def test_token_count_invariant_at_defaults():
    cfg = Config()
    assert cfg.text_len + cfg.num_visual_tokens + 2 == 82


def test_encoders_deterministic():
    cfg = tiny_cfg(seed=3)
    a, b = ForecastModel(cfg), ForecastModel(cfg)
    frame = np.random.default_rng(0).uniform(0, 1, (16, 16, 3))
    npt.assert_array_equal(a.visual(frame).value, b.visual(frame).value)
    ids = tokenize_text("turn the knob", 8)
    npt.assert_array_equal(a.text(ids).value, b.text(ids).value)
