"""Decoder and full forward-step behavior."""

import numpy as np
import numpy.testing as npt
import pytest

from sfhand.config import Config
from sfhand.encoders import tokenize_text
from sfhand.data import generate_synthetic
from sfhand.errors import NumericalError, UsageError
from sfhand.hand import BBox, HandPose, HandState, HandType, Trajectory3D
from sfhand.model import DecodedStep, ForecastModel
from sfhand.stream import rollout


def tiny_cfg(**kw):
    base = dict(d=16, heads=2, pose_dim=6, num_queries=4, raster=16, patch=8,
                text_len=8, memory_size=3, decoder_layers=2)
    base.update(kw)
    return Config(**base)


def state(ht, cx=0.5, traj=(0, 0, 40.0)):
    return HandState(ht, BBox(cx, 0.5, 0.25, 0.25), HandPose(np.zeros(6)),
                     Trajectory3D(*traj), True)


def run_step(model, frame=None, hands=(), queue=None, **kw):
    """One frame as a batch of one."""
    frame = np.zeros((model.cfg.raster, model.cfg.raster, 3)) if frame is None else frame
    queue = model.new_queue() if queue is None else queue
    ids = tokenize_text("grab the cup", model.cfg.text_len)
    return model.forward_step(frame[None], [list(hands)], [queue], instruction_ids=ids[None],
                              **kw)


def decoded_token_shape(model, *args, **kw):
    """The shape of the tokens that ``forward_step`` hands to ``decode``."""
    seen = []
    decode = model.decode
    model.decode = lambda f_me: seen.append(f_me.value.shape) or decode(f_me)
    model.forward_step(*args, **kw)
    return seen[0]


class TestDecode:
    def test_output_count_is_num_queries(self):
        m = ForecastModel(tiny_cfg())
        decoded = run_step(m)
        assert decoded.type_logits.value.shape == (1, 4, 3)
        assert decoded.boxes.value.shape == (1, 4, 4)
        assert decoded.pose.value.shape == (1, 4, 6)
        assert decoded.traj.value.shape == (1, 4, 3)

    def test_boxes_sigmoid_bounded(self):
        m = ForecastModel(tiny_cfg(seed=1))
        boxes = run_step(m).boxes.value
        assert np.all(boxes > 0) and np.all(boxes < 1)

    def test_permuting_tokens_changes_outputs(self):
        # cross-attention keys carry positional additions, so content
        # permutation with positions held fixed must change predictions
        m = ForecastModel(tiny_cfg(seed=2))
        rng = np.random.default_rng(0)
        vals = rng.normal(0, 1, (1, 10, 16))
        base = m.decode(m.tape.constant(vals)).stacked_values()
        perm = np.roll(vals, 3, axis=1)
        moved = m.decode(m.tape.constant(perm)).stacked_values()
        assert np.abs(base - moved).max() > 1e-6


class TestForwardStep:
    def test_token_counts_default_and_ablation(self):
        frames, ids = np.zeros((1, 16, 16, 3)), tokenize_text("x", 8)[None]
        m = ForecastModel(tiny_cfg())
        shape = decoded_token_shape(m, frames, [[]], [m.new_queue()], instruction_ids=ids)
        assert shape == (1, 8 + 4 + 2, 16)  # text + visual + hand

        m2 = ForecastModel(tiny_cfg(use_text=False))
        assert decoded_token_shape(m2, frames, [[]], [m2.new_queue()]) == (1, 4 + 2, 16)

        m3 = ForecastModel(tiny_cfg(use_hand=False))
        shape = decoded_token_shape(m3, frames, [[]], [m3.new_queue()], instruction_ids=ids)
        assert shape == (1, 8 + 4, 16)

        m4 = ForecastModel(tiny_cfg(use_video=False))
        shape = decoded_token_shape(m4, None, [[state(HandType.LEFT)]], [m4.new_queue()],
                                    instruction_ids=ids)
        assert shape == (1, 8 + 2, 16)

    def test_default_config_f_me_is_82(self):
        m = ForecastModel(Config(decoder_layers=1, text_layers=1, hand_layers=1))
        shape = decoded_token_shape(m, np.zeros((1, 64, 64, 3)), [[]], [m.new_queue()],
                                    instruction_ids=tokenize_text("x", 16)[None])
        assert shape == (1, 82, 64)

    def test_identical_steps_differ_only_via_queue(self):
        m = ForecastModel(tiny_cfg(seed=3))
        frame = np.random.default_rng(1).uniform(0, 1, (16, 16, 3))
        hands = [state(HandType.LEFT)]
        q = m.new_queue()
        out1 = run_step(m, frame=frame, hands=hands, queue=q).stacked_values()
        out2 = run_step(m, frame=frame, hands=hands, queue=q).stacked_values()
        assert np.abs(out1 - out2).max() > 0  # queue filled in between

        # on a fresh queue, the first step reproduces bitwise
        m.tape.reset()
        out3 = run_step(m, frame=frame, hands=hands, queue=m.new_queue()).stacked_values()
        npt.assert_array_equal(out3, out1)

    def test_enqueue_happens_after_attention(self):
        m = ForecastModel(tiny_cfg(seed=4))
        q = m.new_queue()
        frame = np.random.default_rng(3).uniform(0, 1, (16, 16, 3))
        hands = [state(HandType.RIGHT)]
        run_step(m, frame=frame, hands=hands, queue=q)
        assert len(q) == 1
        # the enqueued entry is the pre-augmentation embedding and its mask
        e_t, mask = m.encode_current(frame[None], [hands])
        npt.assert_array_equal(q.entries[0].embedding, e_t.value[0])
        npt.assert_array_equal(q.entries[0].roi_mask, mask[0])

    def test_text_required_when_enabled(self):
        m = ForecastModel(tiny_cfg())
        with pytest.raises(UsageError):
            m.forward_step(np.zeros((1, 16, 16, 3)), [[]], [m.new_queue()])

    def test_cached_instruction_matches_fresh_encoding(self):
        m = ForecastModel(tiny_cfg(seed=5))
        cached = m.encode_instruction("lift the lid")
        frames = np.random.default_rng(2).uniform(0, 1, (2, 16, 16, 3))
        a = m.forward_step(frames, [[], []], [m.new_queue(), m.new_queue()],
                           instruction_ids=np.stack([tokenize_text("lift the lid", 8)] * 2))
        b = m.forward_step(frames, [[], []], [m.new_queue(), m.new_queue()],
                           instruction_values=cached)
        npt.assert_allclose(a.stacked_values(), b.stacked_values(), atol=1e-12)


class TestSelectHands:
    def make_decoded(self, m, logits):
        n = logits.shape[0]
        return DecodedStep(
            type_logits=m.tape.constant(logits),
            boxes=m.tape.constant(np.full((n, 4), 0.5)),
            pose=m.tape.constant(np.zeros((n, 6))),
            traj=m.tape.constant(np.tile([1.0, 2.0, 3.0], (n, 1))),
        )

    def test_uniform_logits_give_no_hands(self):
        m = ForecastModel(tiny_cfg())
        decoded = self.make_decoded(m, np.zeros((4, 3)))
        assert m.select_hands(decoded) == []

    def test_strong_left_logit_gives_one_left(self):
        m = ForecastModel(tiny_cfg())
        logits = np.zeros((4, 3))
        logits[2, HandType.LEFT.value] = 10.0
        out = m.select_hands(decoded := self.make_decoded(m, logits))
        assert len(out) == 1
        assert out[0].hand_type is HandType.LEFT
        assert out[0].visible

    def test_two_strong_lefts_higher_prob_wins_then_lower_index(self):
        m = ForecastModel(tiny_cfg())
        logits = np.zeros((4, 3))
        logits[1, HandType.LEFT.value] = 8.0
        logits[3, HandType.LEFT.value] = 9.0
        decoded = self.make_decoded(m, logits)
        out = m.select_hands(decoded)
        assert len(out) == 1
        # query 3 has the larger probability; verify via its traj marker
        decoded2 = self.make_decoded(m, logits)
        decoded2.traj.value[3] = [9.0, 9.0, 9.0]
        out2 = m.select_hands(decoded2)
        assert out2[0].traj.x == pytest.approx(9.0)

        # exact tie -> lower query index
        logits_tie = np.zeros((4, 3))
        logits_tie[1, HandType.LEFT.value] = 9.0
        logits_tie[3, HandType.LEFT.value] = 9.0
        decoded3 = self.make_decoded(m, logits_tie)
        decoded3.traj.value[1] = [7.0, 7.0, 7.0]
        out3 = m.select_hands(decoded3)
        assert out3[0].traj.x == pytest.approx(7.0)

    def test_never_two_states_of_same_type(self):
        m = ForecastModel(tiny_cfg())
        rng = np.random.default_rng(3)
        for _ in range(25):
            decoded = self.make_decoded(m, rng.normal(0, 4, (4, 3)))
            out = m.select_hands(decoded)
            types = [s.hand_type for s in out]
            assert len(types) == len(set(types))

    def test_out_of_range_traj_clamped(self):
        m = ForecastModel(tiny_cfg())
        logits = np.zeros((4, 3))
        logits[0, HandType.RIGHT.value] = 20.0
        decoded = self.make_decoded(m, logits)
        decoded.traj.value[0] = [1e6, -1e6, 0.0]
        out = m.select_hands(decoded)
        assert abs(out[0].traj.x) <= 9999.0

    @pytest.mark.parametrize("head", ("type", "box", "pose", "traj"))
    def test_non_finite_head_raises_numerical_error(self, head):
        # a NaN type head used to emit hands (no comparison with NaN is
        # true), and NaN box, pose or trajectory heads failed as usage errors
        m = ForecastModel(tiny_cfg(confidence_threshold=0.0))
        name = f"decoder.head_{head}.b"
        m.tape.set_param(name, np.full(m.tape.params[name].value.shape, np.nan))
        clip = generate_synthetic(1, "two_hands", 1, frames=3, raster=16, pose_dim=6)[0]
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=head):
            rollout(m, clip)

