"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for a tiny length, untraced and traced, and checks:

* each run exits 0 with a correct result and no failed operation;
* the last line reports exactly the metrics ``BENCHMARK.json`` names for
  that mode, each with its unit;
* a traced run shows calls on every layer ``workloads.json`` says the
  workload exercises, and none on the layers it bypasses;
* the wrapper guard rejects an entry point that does not exist;
* outside a source checkout the command fails without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SECONDS = "2"
TIMEOUT_S = 180


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    sys.path.insert(0, str(CHECKOUT / "src"))
    import tracing

    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    record = json.loads((HERE / "workloads.json").read_text())
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(record["workloads"]), "workloads.json lists the BENCHMARK.json workloads")
    for w in bench["workloads"]:
        expect(w["why"] == record["workloads"][w["name"]]["why"], f"{w['name']}: same why line")

    calls = {ep.name: ep.calls_metric for ep in tracing.ENTRY_POINTS}
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in names:
        for trace in (0, 1):
            tag = f"{name} trace={trace}"
            proc = _run(CHECKOUT, name, trace)
            expect(proc.returncode == 0, f"{tag}: exit 0" + (
                "" if proc.returncode == 0 else f" (got {proc.returncode})\n{proc.stderr[-3000:]}"))
            result = _last_json(proc.stdout)
            if result is None:
                expect(False, f"{tag}: last line is a JSON result")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1, f"{tag}: correct, nothing failed")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            diff = sorted(set(got.items()) ^ set(wanted[trace].items()))
            expect(not diff, f"{tag}: metrics and units as in BENCHMARK.json" + (
                f" (differ: {diff})" if diff else ""))
            if trace and not diff:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                for layer in record["workloads"][name]["exercises"]:
                    expect(values[calls[layer]] > 0, f"{tag}: {layer} is called")
                for layer in record["workloads"][name]["bypasses"]:
                    expect(values[calls[layer]] == 0, f"{tag}: {layer} is not called")

    missing = tracing.EntryPoint("model.gone", "sfhand.model", "ForecastModel.no_such_method")
    try:
        tracing.Tracer(tracing.ENTRY_POINTS + (missing,))
        guarded = False
    except tracing.TraceGuardError:
        guarded = True
    expect(guarded, "wrapper guard rejects a missing entry point")

    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy2(CHECKOUT / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy2(f, bare / "perfbench")
        proc = _run(bare, names[0], 0)
        expect(proc.returncode != 0 and _last_json(proc.stdout) is None,
               "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
