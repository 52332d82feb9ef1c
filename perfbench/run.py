"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload stream_long --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; sfhand is imported from ``src/``.
The run sets up the workload several times (``setup_s`` is the median),
issues operations in a closed loop for ``--seconds``, checks every
operation's outputs and then runs the workload's whole-run checks. It
prints a table of named metrics with units, the environment record, and,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics from an
uninstrumented run; ``--trace 1`` alternates traced and untraced blocks of
operations and reports per-layer self time, calls and work counts. The
exit code is 0 only when every check passed.

Results and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = HERE / "out"
SETUPS = 5  # set-ups per run; setup_s reports their median
# The timed run is cut into SEGMENTS equal-time windows and the end-to-end
# timing statistics pool the KEEP windows with the lowest median operation
# time. On a shared 2-vCPU virtual machine, other tenants slowed stretches
# of half a second to minutes by up to 40%; a change to the code slows
# every window alike, so it still shows in full.
SEGMENTS = 20
KEEP = 5
BLAS_THREADS = "1"  # the matrices are small; one thread keeps runs comparable
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PER_LAYER_EXTRA = {"data.generate_s": "s", "checkpoint.save_s": "s",
                   "checkpoint.load_s": "s", "metrics.coverage": "ratio"}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms",
              "op_ms_tail": "ms", "items_per_s": "1/s"}


class OpClock:
    """Closed-loop operation timer for a fixed number of seconds.

    With a tracer the run alternates blocks of traced and untraced
    operations, starting traced; untraced blocks run with the wrappers
    removed, so comparing the two gives the tracing overhead.
    """

    MAX_LOGGED = 5

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.block_s = min(1.0, seconds / 4)
        # (start offset, seconds) per completed operation, keyed by "traced"
        self.durations = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self._t0 = None
        self._start = None
        self._traced = False
        self._failed_op = -1

    def more(self) -> bool:
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return time.perf_counter() - self._t0 < self.seconds

    def begin(self) -> None:
        if self._t0 is None:
            self._t0 = time.perf_counter()
        if self.tracer is not None:
            self._traced = int((time.perf_counter() - self._t0) / self.block_s) % 2 == 0
            if self._traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()
        self._start = time.perf_counter()
        if self._traced:
            self.tracer.begin_op(self._start)

    def end(self, keep: bool = True) -> None:
        end = time.perf_counter()
        if self._traced:
            self.tracer.end_op(end, keep)
        if keep:
            self.durations[self._traced].append((self._start - self._t0, end - self._start))
            self.attempted += 1

    def op(self, fn):
        """Time one operation; returns its result, or None if it raised."""
        self.begin()
        try:
            result = fn()
        except Exception as e:  # a failed operation is counted, not fatal
            self.raised(e)
            return None
        self.end()
        return result

    def raised(self, exc: BaseException) -> None:
        self.end()
        self.fail("".join(traceback.format_exception(exc)).rstrip())

    def fail(self, why: str) -> None:
        """Mark the last completed operation failed (once)."""
        if self._failed_op == self.attempted:
            return
        self._failed_op = self.attempted
        self.failed += 1
        if self.failed <= self.MAX_LOGGED:
            print(f"operation {self.attempted} failed: {why}", file=sys.stderr)


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(args, cfg) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "config_sha256": hashlib.sha256(cfg.to_json().encode()).hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": SETUPS,
    }


def _percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def _steady(ops, run_seconds: float) -> list[float]:
    """Durations from the KEEP of SEGMENTS windows with the lowest median."""
    parts: dict[int, list[float]] = {}
    for offset, seconds in ops:
        segment = min(SEGMENTS - 1, int(offset * SEGMENTS / run_seconds))
        parts.setdefault(segment, []).append(seconds)
    ranked = sorted(parts.values(), key=statistics.median)
    kept = ranked[:max(1, round(len(ranked) * KEEP / SEGMENTS))]
    return [d for part in kept for d in part]


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("stream_long", "train_default", "eval_heldout"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    for key in BLAS_ENV:  # must precede the first numpy import
        os.environ[key] = BLAS_THREADS
    src = CHECKOUT / "src"
    if not (src / "sfhand" / "__init__.py").is_file():
        print(f"perfbench: no sfhand sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    kind = WORKLOADS[args.workload]
    # the tracer resolves every entry point now, so a missing one fails first
    tracer = tracing.Tracer() if args.trace else None

    setup_s, parts = [], {}
    for _ in range(SETUPS):
        wl = None  # free the previous set-up before building the next
        gc.collect()
        t0 = time.perf_counter()
        wl = kind(args.seed, OUT)
        setup_s.append(time.perf_counter() - t0)
        for k, v in wl.setup_parts.items():
            parts.setdefault(k, []).append(v)

    clock = OpClock(args.seconds, tracer)
    wl.run(clock)
    if tracer is not None:
        tracer.uninstall()
    checks = wl.final_checks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [d for _, d in clock.durations[False]]
    if not plain:
        print("perfbench: no untraced operation completed", file=sys.stderr)
        return 1
    steady = _steady(clock.durations[False], args.seconds)
    e2e = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "op_ms_p50": _percentile(steady, 50) * 1e3,
        "op_ms_tail": _percentile(steady, wl.tail_pct) * 1e3,
        "items_per_s": len(steady) * wl.items_per_op / sum(steady),
    }
    # the same numbers under the names each workload's users know
    table = {"setup_s": (e2e["setup_s"], "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
             "failed_ops_frac": (clock.failed / max(1, clock.attempted), "ratio")}
    names = json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]["names"]
    for key, label in names.items():
        table[label] = (e2e[key], END_TO_END[key])
    extras = wl.extra_metrics()
    table.update({k: v for k, v in extras.items() if k not in PER_LAYER_EXTRA})

    layers = {}
    if tracer is not None:
        traced = [d for _, d in clock.durations[True]]
        if not traced:
            print("perfbench: no traced operation completed", file=sys.stderr)
            return 1
        overhead = 1.0 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        layers = tracer.summary(overhead)
        for k in PER_LAYER_EXTRA:
            if k in parts:
                layers[k] = statistics.median(parts[k])
            else:
                layers[k] = extras.get(k, (0.0, ""))[0]
        tracer.write_spans(OUT / f"{args.workload}.spans.jsonl")

    correct = clock.failed == 0 and all(ok for _, ok, _ in checks)
    env = _environment(args, wl.cfg)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={clock.attempted} (untraced {len(plain)}, "
          f"traced {len(clock.durations[True])}; statistics over {len(steady)}) "
          f"failed={clock.failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, ok, detail in checks:
        print(f"check {name:<26} {'ok' if ok else 'FAILED'}  {detail}")
    for name, (value, unit) in table.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    layer_units = {**tracing.metric_units(), **PER_LAYER_EXTRA}
    for name in sorted(layers):
        print(f"  {name:<34} {layers[name]:>14.6g} {layer_units[name]}")

    metrics, units = (layers, layer_units) if tracer is not None else (e2e, END_TO_END)
    result = {
        "correct": correct,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"env": env, "result": result,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
              "table": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
              "ops": {"untraced": clock.durations[False], "traced": clock.durations[True],
                      "fields": ["start offset s", "duration s"]}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
