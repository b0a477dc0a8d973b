"""Self-test of the benchmark at tiny sizes (n <= 8); takes about a minute.

    python3 benchmarks/selftest.py

1. Runs every workload in both trace modes as the real command, with
   ``--tiny``, and checks the exit code, the keys of the last line, and that
   every metric BENCHMARK.json names for that mode is emitted with its unit.
2. Runs every workload in process with one pinned value made wrong and checks
   that the failure is counted (failed > 0) and the result is not correct.
3. Runs the command in a directory holding only BENCHMARK.json and the
   benchmark's files, and checks that it exits nonzero without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    failures: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
          "BENCHMARK.json names the workloads run.py knows", failures)

    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = command(run.ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{what}: exit code 0 (got {proc.returncode})", failures)
            try:
                last = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{what}: last line is JSON", failures)
                continue
            check(set(last) == RESULT_KEYS, f"{what}: result keys", failures)
            got = {name: m.get("unit") for name, m in last.get("metrics", {}).items()}
            check(got == expected[trace], f"{what}: every metric emitted with its unit", failures)
            check(last.get("failed") == 0 and last.get("correct") is True, f"{what}: no failed operation", failures)

    run.import_program()
    import workloads as W

    for workload in run.WORKLOAD_NAMES:
        wl = W.TINY[workload]
        pins = W.default_pins()
        if wl.kind == "multiplier":
            pins.dim_m[wl.sizes[-1]] += 1
        else:
            pins.sweep_sha256[("Q", wl.max_dim)] = "0" * 64
        result = run.measure(wl, seed=7, seconds=0.1, trace=False, pins=pins)
        check(result["failed"] > 0 and not result["correct"],
              f"{workload}: a wrong pinned value is counted as failed ({result['failed']} of "
              f"{result['attempted']})", failures)

    bare = run.BENCH_DIR / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "benchmarks")
    try:
        proc = command(bare, run.WORKLOAD_NAMES[0], 0)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              f"without the program: exit code {proc.returncode}, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
