"""The traced benchmark's entry points still exist in the package, and its
tracer still reads the counters it reports."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

from sfhand.config import Config
from sfhand.data import generate_synthetic
from sfhand.harness import evaluate_model
from sfhand.model import ForecastModel
from sfhand.stream import ORACLE, Session
from sfhand.train import train

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TINY = dict(d=8, heads=2, pose_dim=6, num_queries=3, raster=16, patch=8,
            text_len=4, memory_size=2, batch=2)
CLIPS = generate_synthetic(2, "reach", 2, frames=4, raster=16, pose_dim=6)


@pytest.fixture(scope="module")
def tracing():
    # loaded from its file, as perfbench/run.py loads it, and never written
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_entry_point_resolves(tracing):
    # A rename in sfhand would otherwise surface only as TraceGuardError
    # in a traced benchmark run.
    for ep in tracing.ENTRY_POINTS:
        ep.resolve()  # raises TraceGuardError if the entry point is gone


class Traced:
    """One tracer installed for the block; ``begin`` and ``end`` bound the
    single operation, whose per-layer summary ``summary`` returns."""

    def __init__(self, tracing):
        self.tracer = tracing.Tracer()

    def __enter__(self):
        self.tracer.install()
        return self

    def __exit__(self, *exc):
        self.tracer.uninstall()

    def begin(self):
        self.tracer.begin_op(time.perf_counter())

    def end(self):
        self.tracer.end_op(time.perf_counter())

    def summary(self):
        return self.tracer.summary(0.0)


def assert_memory_counted(summary):
    assert summary["memory.queue_bytes_max"] > 0
    assert summary["memory.keys_per_call"] > 0


def test_tracer_counts_a_session_step(tracing):
    model = ForecastModel(Config(**TINY))
    clip = CLIPS[0]
    session = Session(model, clip.instruction, mode=ORACLE)
    with Traced(tracing) as traced:
        session.step(clip.frames[0], clip.gt[0])  # outside the op: fills the queue
        traced.begin()
        session.step(clip.frames[1], clip.gt[1])
        traced.end()
    summary = traced.summary()
    assert_memory_counted(summary)
    assert summary["memory.forward.calls"] == summary["model.select_hands.calls"] == 1
    assert summary["stream.sessions_per_op"] == 0


def test_tracer_counts_one_training_update(tracing):
    # the second of two updates, so its one batched memory read has keys
    model = ForecastModel(Config(**TINY))

    def on_record(rec):
        (traced.begin if rec.step == 1 else traced.end)()

    with Traced(tracing) as traced:
        train(model, CLIPS, steps=2, on_record=on_record)
    summary = traced.summary()
    assert_memory_counted(summary)
    assert summary["memory.forward.calls"] == summary["model.forward_step.calls"] == 1
    assert summary["train.adamw.calls"] == summary["tensor.backward.calls"] == 1
    assert summary["model.select_hands.calls"] == 0
    assert summary["stream.sessions_per_op"] == 0


def test_tracer_counts_an_evaluation(tracing):
    # two equal-length clips: one lockstep session of two streams
    model = ForecastModel(Config(**TINY))
    with Traced(tracing) as traced:
        traced.begin()
        evaluate_model(model, CLIPS, "self", workers=1)
        traced.end()
    summary = traced.summary()
    assert_memory_counted(summary)
    assert summary["stream.sessions_per_op"] == 1
    assert summary["metrics.add_clip.calls"] == len(CLIPS)
    assert summary["memory.forward.calls"] == CLIPS[0].num_frames - 1
