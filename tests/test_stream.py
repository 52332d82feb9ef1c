"""Streaming oracle and the constant-cost gate of the streaming bench."""

from types import SimpleNamespace

import numpy as np
import pytest

from sfhand.config import MEMORY_MODES, Config
from sfhand.data import generate_synthetic
from sfhand.memory import MemoryQueue
from sfhand.model import ForecastModel
from sfhand.errors import UsageError
from sfhand.stream import (ORACLE, SELF_FEED, Session, batch_replay_check, bench,
                           lockstep_batches, rollout)
from sfhand.tensor import Tape

TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8,
            text_len=4, memory_size=2)
# 6 frames are 5 stream steps: with a queue of 2, the last two steps attend
# to a queue that has evicted its oldest entries
CLIP = generate_synthetic(3, "two_hands", 1, frames=6, raster=16, pose_dim=6)[0]
# three streams of one lockstep batch, each with its own instruction
CLIPS = [CLIP] + generate_synthetic(4, "reach", 2, frames=6, raster=16, pose_dim=6)

CASES = [dict(memory_mode=mode) for mode in MEMORY_MODES] + [
    dict(use_memory=False), dict(use_text=False), dict(use_video=False),
    dict(use_hand=False), dict(use_video=False, use_hand=False),
]
CASE_IDS = ["-".join(f"{k}={v}" for k, v in case.items()) for case in CASES]


@pytest.mark.parametrize("session_mode", (SELF_FEED, ORACLE))
@pytest.mark.parametrize("overrides", CASES, ids=CASE_IDS)
def test_batch_replay_equals_stream_exactly(overrides, session_mode):
    # The stream is incremental and the replay recomputes each step from
    # scratch, through the same ops on the same inputs; any difference
    # means the queue held something a fresh window would not. The
    # check is the max over every stream of a batch, so 0.0 holds for
    # each of the three streams.
    model = ForecastModel(Config(**TINY, **overrides))
    assert batch_replay_check(model, CLIP, mode=session_mode) == 0.0
    assert batch_replay_check(model, CLIPS, mode=session_mode) == 0.0


@pytest.mark.parametrize("session_mode", (SELF_FEED, ORACLE))
def test_batch_replay_catches_a_queue_that_never_evicts(monkeypatch, session_mode):
    # The replay window holds the last memory_size frames; a stream queue
    # that keeps every entry differs from it from the first eviction on.
    enqueue = MemoryQueue.enqueue

    def never_evict(queue, embedding, mask):
        queue.capacity += 1
        enqueue(queue, embedding, mask)

    monkeypatch.setattr(MemoryQueue, "enqueue", never_evict)
    model = ForecastModel(Config(**TINY))
    assert batch_replay_check(model, CLIP, mode=session_mode) > 0.0
    assert batch_replay_check(model, CLIPS, mode=session_mode) > 0.0


def test_rollout_rejects_clips_of_different_lengths():
    model = ForecastModel(Config(**TINY))
    short = generate_synthetic(4, "reach", 1, frames=4, raster=16, pose_dim=6)
    with pytest.raises(UsageError):
        rollout(model, [CLIP] + short)
    with pytest.raises(UsageError):
        rollout(model, [])


def test_lockstep_batches_group_one_length_in_order():
    clips = [SimpleNamespace(num_frames=n) for n in (4, 6, 4, 1, 6, 4, 4)]
    assert lockstep_batches(clips, 2) == [[0, 2], [5, 6], [1, 4], [3]]
    assert lockstep_batches([], 3) == []
    lengths = np.random.default_rng(0).integers(1, 5, 40)
    clips = [SimpleNamespace(num_frames=int(n)) for n in lengths]
    # each length's clips in input order, lengths in first-appearance order
    order = [k for n in dict.fromkeys(lengths.tolist()) for k in np.flatnonzero(lengths == n)]
    counts = np.unique(lengths, return_counts=True)[1]
    for width in (1, 3, 8, 40):
        batches = lockstep_batches(clips, width)
        assert [k for batch in batches for k in batch] == order
        assert all(1 <= len(batch) <= width for batch in batches)
        assert len(batches) == sum(-(-c // width) for c in counts)  # only a last one narrower
        assert all(len({lengths[k] for k in batch}) == 1 for batch in batches)


def test_session_step_records_nothing_and_equals_a_recording_step():
    model = ForecastModel(Config(**TINY))
    session = Session(model, [c.instruction for c in CLIPS], mode=ORACLE, record=True)
    queue = model.new_queue(len(CLIPS))
    for i in range(CLIP.num_frames):
        frames = np.stack([c.frames[i] for c in CLIPS])
        preds = session.step(frames, [c.gt[i] for c in CLIPS])
        assert len(preds) == len(CLIPS)
        assert model.tape.nodes == []
        assert model.tape.ops > 0
        model.tape.reset()
        decoded = model.forward_step(frames, [c.gt[i] for c in CLIPS], queue,
                                     instruction_values=session.instruction_values)
        assert len(model.tape.nodes) == model.tape.ops  # every op a record
        np.testing.assert_array_equal(decoded.stacked_values(), session.trace[-1].outputs)


def test_default_config_stream_step_op_count():
    # A deterministic work count: the decoder adds its key positions once
    # per step, not once per block; the first step's memory attends to an
    # empty queue and runs no op, and every later step's memory runs three
    # (bias, attention, residual).
    model = ForecastModel(Config())
    clip = generate_synthetic(0, "reach", 1, frames=4)[0]
    session = Session(model, clip.instruction, mode=ORACLE)
    ops = []
    for i in range(3):
        session.step(clip.frames[i], clip.gt[i])
        ops.append(model.tape.ops)
    assert ops == [146, 149, 149]


def test_bench_constant_cost_holds():
    result = bench(ForecastModel(Config(**TINY)), 20)
    assert result.constant_cost()
    assert result.min_step_ops == result.max_step_ops > 0
    assert result.max_queue_len == result.capacity == TINY["memory_size"]


def test_bench_constant_cost_catches_leaked_tape_records(monkeypatch):
    # A reset that forgets to zero the op count grows it by one step's ops
    # per step, as a reset that kept the last step's records would grow the
    # tape; the latency grows too little to see.
    original = Tape.reset

    def leaky_reset(tape):
        kept = tape.ops
        original(tape)
        tape.ops = kept

    monkeypatch.setattr(Tape, "reset", leaky_reset)
    result = bench(ForecastModel(Config(**TINY)), 20)
    assert result.max_step_ops > result.min_step_ops
    assert not result.constant_cost()
