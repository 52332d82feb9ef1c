"""Streaming oracle and the constant-cost gate of the streaming bench."""

import pytest

from sfhand.config import MEMORY_MODES, Config
from sfhand.data import generate_synthetic
from sfhand.model import ForecastModel
from sfhand.stream import ORACLE, SELF_FEED, batch_replay_check, bench
from sfhand.tensor import Tape

TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8,
            text_len=4, memory_size=2)
CLIP = generate_synthetic(3, "two_hands", 1, frames=4, raster=16, pose_dim=6)[0]

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
    # means the queue held something a fresh window would not.
    model = ForecastModel(Config(**TINY, **overrides))
    assert batch_replay_check(model, CLIP, mode=session_mode) == 0.0


def test_bench_constant_cost_holds():
    result = bench(ForecastModel(Config(**TINY)), 20)
    assert result.constant_cost()
    assert result.min_tape_nodes == result.max_tape_nodes > 0
    assert result.max_queue_len == result.capacity == TINY["memory_size"]


def test_bench_constant_cost_catches_leaked_tape_records(monkeypatch):
    # A reset that forgets to drop the last step's records grows the tape
    # by one step's nodes per step; the latency grows too little to see.
    original = Tape.reset

    def leaky_reset(tape):
        kept = tape.nodes
        original(tape)
        tape.nodes = kept

    monkeypatch.setattr(Tape, "reset", leaky_reset)
    result = bench(ForecastModel(Config(**TINY)), 20)
    assert result.max_tape_nodes > result.min_tape_nodes
    assert not result.constant_cost()
