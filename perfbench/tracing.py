"""Per-layer spans recorded by wrapping the public entry points of sfhand.

Nothing inside the package is instrumented: ``Tracer.install`` replaces
each entry point listed in ``ENTRY_POINTS`` by a wrapper that records a
span (name, start, end, parent span, operation) and, for some layers, a
work counter; ``Tracer.uninstall`` puts the originals back. A module-level
function is replaced in every ``sfhand`` module that imported it by name,
so ``from .matching import hungarian`` call sites are traced too.

An entry point that no longer exists is an error (``TraceGuardError``),
never a silent 0 ms: a renamed function must make the traced run fail.

Spans are kept in memory and written out by ``write_spans`` when the run
ends. A span's self time is its duration minus the durations of its
direct children; the run's operations are root spans named ``op``, so the
self times of all layers plus ``other`` add up to the operation's time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

ROOT = "op"
_ABSENT = object()  # marks a class attribute that was inherited, not defined


class TraceGuardError(RuntimeError):
    """A wrapped entry point is missing from the package."""


def _queue_keys(args, result) -> float:
    queue = args[1]
    return float(len(queue) * queue.token_count)


def _queue_bytes(args, result) -> float:
    return float(sum(e.embedding.nbytes + e.roi_mask.nbytes for e in args[0].entries))


def _tape_nodes(args, result) -> float:
    return float(len(args[0].tape.nodes))


def _hands(args, result) -> float:
    return float(len(result))


@dataclass(frozen=True)
class Counter:
    """A work count taken after the entry point returns."""

    name: str
    unit: str
    reduce: str  # "mean" over calls, or "max"
    read: Callable


@dataclass(frozen=True)
class EntryPoint:
    name: str    # metric prefix, e.g. "encoders.visual"
    module: str  # defining module
    attr: str    # "function" or "Class.method"
    calls_name: Optional[str] = None
    counter: Optional[Counter] = None

    @property
    def calls_metric(self) -> str:
        return self.calls_name or f"{self.name}.calls"

    def resolve(self):
        """(owner, attribute name, original callable); raises if missing."""
        try:
            owner = importlib.import_module(self.module)
        except ImportError as e:
            raise TraceGuardError(f"{self.name}: cannot import {self.module}: {e}") from e
        *path, leaf = self.attr.split(".")
        for part in path:
            if not hasattr(owner, part):
                raise TraceGuardError(f"{self.name}: {self.module}.{self.attr} no longer exists")
            owner = getattr(owner, part)
        original = getattr(owner, leaf, None)
        if not callable(original):
            raise TraceGuardError(f"{self.name}: {self.module}.{self.attr} no longer exists")
        return owner, leaf, original


ENTRY_POINTS = (
    EntryPoint("encoders.visual", "sfhand.encoders", "VisualEncoder.__call__"),
    EntryPoint("encoders.hand", "sfhand.encoders", "HandEncoder.__call__"),
    EntryPoint("encoders.text", "sfhand.encoders", "TextEncoder.__call__"),
    EntryPoint("tensor.gelu", "sfhand.tensor", "gelu"),
    EntryPoint("tensor.reset", "sfhand.tensor", "Tape.reset"),
    EntryPoint("tensor.backward", "sfhand.tensor", "Tape.backward"),
    EntryPoint("memory.forward", "sfhand.memory", "MemoryLayer.forward",
               counter=Counter("memory.keys_per_call", "count", "mean", _queue_keys)),
    EntryPoint("memory.enqueue", "sfhand.memory", "MemoryQueue.enqueue",
               counter=Counter("memory.queue_bytes_max", "bytes", "max", _queue_bytes)),
    EntryPoint("model.forward_step", "sfhand.model", "ForecastModel.forward_step",
               counter=Counter("tensor.nodes_per_step", "count", "mean", _tape_nodes)),
    EntryPoint("model.decode", "sfhand.model", "ForecastModel.decode"),
    EntryPoint("model.select_hands", "sfhand.model", "ForecastModel.select_hands",
               counter=Counter("model.hands_per_step", "count", "mean", _hands)),
    EntryPoint("matching.composite_loss", "sfhand.matching", "composite_loss"),
    EntryPoint("matching.hungarian", "sfhand.matching", "hungarian"),
    EntryPoint("train.adamw", "sfhand.train", "AdamW.step"),
    EntryPoint("stream.session_setup", "sfhand.stream", "Session.__post_init__",
               calls_name="stream.sessions_per_op"),
    EntryPoint("metrics.add_clip", "sfhand.metrics", "MetricAccumulator.add_clip"),
    EntryPoint("metrics.procrustes", "sfhand.metrics", "procrustes_align"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for ep in ENTRY_POINTS:
        units[f"{ep.name}.self_ms"] = "ms"
        units[ep.calls_metric] = "count"
        if ep.counter:
            units[ep.counter.name] = ep.counter.unit
    units["other.self_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Span recorder for one run; single-threaded, like the workloads."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        # (name, start, end, parent span index, operation index)
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counts: dict[str, list[float]] = {}
        self.ops = 0
        self._root: Optional[int] = None
        self._root_start = 0.0
        # fail before any timing if an entry point has gone
        self._resolved = [(ep, *ep.resolve()) for ep in entry_points]

    # -- installation ----------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self.installed:
            return
        for ep, owner, leaf, original in self._resolved:
            wrapper = self._wrap(ep, original)
            if isinstance(owner, type):
                self._patch(owner, leaf, wrapper)
                continue
            # the defining module and every sfhand module that imported it
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name.split(".")[0] == "sfhand" and getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, saved in reversed(self._patches):
            if saved is _ABSENT:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, saved)
        self._patches.clear()

    def _patch(self, owner, leaf: str, wrapper) -> None:
        saved = owner.__dict__.get(leaf, _ABSENT) if isinstance(owner, type) else getattr(owner, leaf)
        self._patches.append((owner, leaf, saved))
        setattr(owner, leaf, wrapper)

    def _wrap(self, ep: EntryPoint, fn):
        spans, stack, counter = self.spans, self._stack, ep.counter
        name = ep.name
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside an operation
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.ops)
            if counter is not None:
                self._counts.setdefault(counter.name, []).append(counter.read(args, result))
            return result

        return traced

    # -- operations ------------------------------------------------------------

    def begin_op(self, start: float) -> None:
        self._root = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._root)
        self._root_start = start

    def end_op(self, end: float, keep: bool = True) -> None:
        self._stack.pop()
        if self._stack:
            raise RuntimeError("span stack not empty at the end of an operation")
        if keep:
            self.spans[self._root] = (ROOT, self._root_start, end, -1, self.ops)
            self.ops += 1
        else:  # discard the operation and every span it opened
            del self.spans[self._root:]
        self._root = None

    # -- results ---------------------------------------------------------------

    def summary(self, overhead_frac: float) -> dict[str, float]:
        """Per-operation self time and call counts for every layer."""
        if self.ops == 0:
            raise RuntimeError("the traced run completed no operation")
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, span in enumerate(self.spans):
            self_s[span[0]] = self_s.get(span[0], 0.0) + (span[2] - span[1]) - child[i]
            calls[span[0]] = calls.get(span[0], 0) + 1
        out = {}
        for ep in self.entry_points:
            out[f"{ep.name}.self_ms"] = self_s.get(ep.name, 0.0) * 1e3 / self.ops
            out[ep.calls_metric] = calls.get(ep.name, 0) / self.ops
            if ep.counter:
                values = self._counts.get(ep.counter.name, [])
                if not values:
                    out[ep.counter.name] = 0.0
                elif ep.counter.reduce == "max":
                    out[ep.counter.name] = max(values)
                else:
                    out[ep.counter.name] = sum(values) / len(values)
        out["other.self_ms"] = self_s.get(ROOT, 0.0) * 1e3 / self.ops
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")

