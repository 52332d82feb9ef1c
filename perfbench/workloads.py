"""The three benchmark workloads, each a closed loop with one client.

A workload object is built by its constructor (the timed set-up), then
``run(clock)`` issues operations until the clock says stop, checking each
operation's outputs outside the timed region, and ``final_checks()`` runs
the whole-run correctness oracles. Every workload reaches sfhand only
through its public API; the inputs come from the workload seed.

* ``stream_long``: one oracle-mode ``Session`` at the default ``Config``;
  one operation is one ``Session.step`` with the FIFO already full.
* ``train_default``: ``train.train`` on the ``build_benchmark`` training
  split at the default ``Config``; one operation is one optimizer update.
* ``eval_heldout``: ``evaluate_model`` in self-feed mode over the 16
  held-out clips at raster 32 with a briefly trained model whose
  checkpoint was saved and loaded; one operation is one clip.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np

from sfhand.checkpoint import load_checkpoint, save_checkpoint
from sfhand.config import Config
from sfhand.data import SCENARIOS, generate_synthetic
from sfhand.harness import build_benchmark, evaluate_model
from sfhand.model import ForecastModel
from sfhand.stream import ORACLE, Session, batch_replay_check
from sfhand.train import train

REPLAY_TOLERANCE = 1e-5  # batch_replay_check bound for streaming outputs


class _Stop(Exception):
    """Raised from the training callback when the run's time is up."""


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class StreamLong:
    name = "stream_long"
    tail_pct = 95
    WARMUP_STEPS = 20  # more than the FIFO capacity, so the queue is full

    def __init__(self, seed: int, workdir: Path):
        self.cfg = Config()
        self.items_per_op = 1
        t0 = time.perf_counter()
        # one clip per scenario, cycled under the first clip's instruction
        self.clips = [generate_synthetic(seed, s, 1, raster=self.cfg.raster,
                                         pose_dim=self.cfg.pose_dim)[0] for s in SCENARIOS]
        self.setup_parts = {"data.generate_s": time.perf_counter() - t0}
        self.inputs = [(c.frames[i], c.gt[i]) for c in self.clips for i in range(c.num_frames)]
        self.model = ForecastModel(self.cfg)
        # record=True keeps each step's head outputs for the finiteness check
        self.session = Session(self.model, self.clips[0].instruction, mode=ORACLE, record=True)
        self.next_input = 0
        for _ in range(self.WARMUP_STEPS):
            self.session.step(*self._input())
        self.session.trace.clear()
        self.nodes = len(self.model.tape.nodes)

    def _input(self):
        item = self.inputs[self.next_input % len(self.inputs)]
        self.next_input += 1
        return item

    def run(self, clock) -> None:
        session, capacity = self.session, self.cfg.memory_size
        while clock.more():
            frame, gt = self._input()
            preds = clock.op(lambda: session.step(frame, gt))
            records, session.trace = session.trace, []
            if preds is None:
                continue
            if not records or not np.all(np.isfinite(records[-1].outputs)):
                clock.fail("non-finite head outputs")
            if len(session.queue) != capacity:
                clock.fail(f"queue length {len(session.queue)} != capacity {capacity}")
            if len(self.model.tape.nodes) != self.nodes:
                clock.fail(f"tape nodes {len(self.model.tape.nodes)} != {self.nodes} after warm-up")

    def final_checks(self) -> list[tuple[str, bool, str]]:
        err = batch_replay_check(self.model, self.clips[0], mode=ORACLE)
        return [("batch_replay_check", err <= REPLAY_TOLERANCE,
                 f"max |stream - replay| = {err:.3g} (bound {REPLAY_TOLERANCE:g})")]

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        return {}


class TrainDefault:
    name = "train_default"
    tail_pct = 90
    REFERENCE_UPDATES = 8  # fresh re-run that pins the loss curve
    FINAL_UPDATES = 4      # train_loss_final averages the last of those

    def __init__(self, seed: int, workdir: Path):
        self.cfg = Config()
        self.items_per_op = self.cfg.batch  # frames per optimizer update
        t0 = time.perf_counter()
        self.clips, _ = build_benchmark(seed, raster=self.cfg.raster, pose_dim=self.cfg.pose_dim)
        self.setup_parts = {"data.generate_s": time.perf_counter() - t0}
        self.model = ForecastModel(self.cfg)
        self.records = []
        self.loss_final = math.nan

    def run(self, clock) -> None:
        def on_record(rec):
            clock.end()
            self.records.append(rec)
            if not _finite(rec.total, rec.type, rec.box, rec.pose, rec.traj):
                clock.fail(f"non-finite loss at update {rec.step}")
            if not clock.more():
                raise _Stop
            clock.begin()

        # train() stops after cfg.steps updates; a fast run calls it again
        while clock.more():
            clock.begin()
            try:
                train(self.model, self.clips, on_record=on_record)
            except _Stop:
                return
            except Exception as e:  # counted as a failed update; the model is suspect
                clock.raised(e)
                return
            clock.end(keep=False)  # the update opened after the last one never ran

    def final_checks(self) -> list[tuple[str, bool, str]]:
        reference = []

        def collect(rec):
            reference.append(rec)
            if len(reference) >= self.REFERENCE_UPDATES:
                raise _Stop

        try:
            train(ForecastModel(self.cfg), self.clips, on_record=collect)
        except _Stop:
            pass
        n = min(len(reference), len(self.records))
        self.loss_final = float(np.mean([r.total for r in reference[-self.FINAL_UPDATES:]]))
        return [
            ("loss_curve_repeats", n >= 1 and reference[:n] == self.records[:n],
             f"first {n} updates of a fresh run at the same seed equal the timed run's"),
            ("reference_losses_finite",
             all(_finite(r.total, r.type, r.box, r.pose, r.traj) for r in reference),
             f"{len(reference)} reference updates"),
        ]

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        return {"train_loss_final": (self.loss_final, "loss")}


class EvalHeldout:
    name = "eval_heldout"
    tail_pct = 90
    BRIEF_UPDATES = 10

    def __init__(self, seed: int, workdir: Path):
        # Threshold 0 makes every step emit one hand of each type, so the
        # metrics layer does the same work at every seed. At the default 0.5
        # the briefly trained model emitted 0 to 165 hands over the 240
        # held-out frames depending on the seed, bypassing that layer at some.
        self.cfg = Config(raster=32, confidence_threshold=0.0)
        self.items_per_op = 1
        t0 = time.perf_counter()
        train_clips, self.held = build_benchmark(seed, raster=self.cfg.raster,
                                                 pose_dim=self.cfg.pose_dim)
        parts = {"data.generate_s": time.perf_counter() - t0}
        self.model = ForecastModel(self.cfg)
        train(self.model, train_clips, steps=self.BRIEF_UPDATES)
        # restore_model cannot be used: save_checkpoint writes the 0-d
        # memory.alpha as shape (1,), which restore_model then rejects. The
        # byte format still round-trips both ways, so that is what runs.
        path = workdir / f"eval_heldout-{os.getpid()}.ckpt"
        try:
            t0 = time.perf_counter()
            save_checkpoint(path, self.cfg, self.model.tape.param_values(),
                            step=self.BRIEF_UPDATES)
            parts["checkpoint.save_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            load_checkpoint(path)
            parts["checkpoint.load_s"] = time.perf_counter() - t0
        finally:
            path.unlink(missing_ok=True)
        self.setup_parts = parts
        self.gt_hands = [sum(1 for gts in clip.gt[1:] for g in gts if g.visible)
                         for clip in self.held]
        self.first_pass = [None] * len(self.held)

    def run(self, clock) -> None:
        model, held = self.model, self.held
        i = 0
        while clock.more():
            k = i % len(held)
            i += 1
            report = clock.op(lambda: evaluate_model(model, [held[k]], "self", workers=1))
            if report is None:
                continue
            values = report.to_dict()
            if values["frames"] != held[k].num_frames - 1:
                clock.fail(f"clip {k}: {values['frames']} frames scored, "
                           f"expected {held[k].num_frames - 1}")
            if not _finite(*values.values()):
                clock.fail(f"clip {k}: non-finite metrics {values}")
            if self.first_pass[k] is None:
                self.first_pass[k] = report
            elif report != self.first_pass[k]:
                clock.fail(f"clip {k}: report differs from the first pass")

    def coverage(self) -> float:
        """Predictions matched to a ground-truth hand, over ground-truth hands."""
        seen = [k for k, r in enumerate(self.first_pass) if r is not None]
        gt = sum(self.gt_hands[k] for k in seen)
        return sum(self.first_pass[k].hands for k in seen) / gt if gt else 0.0

    def final_checks(self) -> list[tuple[str, bool, str]]:
        whole = evaluate_model(self.model, self.held, "self", workers=1)
        expected = sum(c.num_frames - 1 for c in self.held)
        checks = [
            ("whole_set_frames", whole.frames == expected,
             f"{whole.frames} frames over {len(self.held)} clips, expected {expected}"),
            ("whole_set_finite", _finite(*whole.to_dict().values()), str(whole.to_dict())),
            ("coverage_positive", self.coverage() > 0,
             f"metrics.coverage = {self.coverage():.4f}"),
        ]
        if all(r is not None for r in self.first_pass):
            per_clip = sum(r.hands for r in self.first_pass)
            checks.append(("whole_set_hands", whole.hands == per_clip,
                           f"{whole.hands} hands over the set, {per_clip} summed per clip"))
        return checks

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        return {"metrics.coverage": (self.coverage(), "ratio")}


WORKLOADS = {w.name: w for w in (StreamLong, TrainDefault, EvalHeldout)}
