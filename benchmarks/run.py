"""liemult benchmark: time to answer of the CLI paths people run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is imported
from ``src/``.  With ``--trace 0`` the CLI operations of the workload are
timed untraced and the end-to-end metrics are reported; with ``--trace 1`` a
separate run replays every operation as its public library steps inside
spans and reports the per-layer metrics.  Every output is checked; any
mismatch makes the run exit 1.  Each metric is printed as ``name value
unit``, provenance and per-operation samples go to
``benchmarks/results/``, and the last line of stdout is one JSON object.
See ``benchmarks/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("multiplier-sparse", "multiplier-dense", "bound-sweep")
# Set-up is repeated at least 3 times and, when cheap, until it has taken
# SETUP_MIN_S; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 1.0

END_TO_END = {
    "solve_q_s": "s",
    "solve_gfp_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "algfile.parse_s": "s",
    "catalog.import_s": "s",
    "catalog.build_s": "s",
    "algebra.series_s": "s",
    "algebra.center_s": "s",
    "algebra.quotient_s": "s",
    "homology.boundary_s": "s",
    "homology.d3_rows": "count",
    "homology.d3_cols": "count",
    "homology.d3_nnz": "count",
    "homology.d3_density": "ratio",
    "linalg.rank_d2_s": "s",
    "linalg.rank_d3_s": "s",
    "linalg.rank_d3": "count",
    "fields.q_over_gfp": "ratio",
    "words.psi_s": "s",
    "words.psi_tuples": "count",
    "words.psi_us_per_tuple": "us",
    "words.psi_fallbacks": "count",
    "bounds.thm13_s": "s",
    "bounds.central_ideals": "count",
    "cli.overhead_s": "s",
    "cli.output_bytes": "bytes",
    "cli.task_sum_s": "s",
    "cli.task_max_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# A fresh interpreter imports liemult (the catalog is built at import time)
# and reports the import's duration; -X importtime gives catalog's own share.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t0 = time.perf_counter(); import liemult; print(time.perf_counter() - t0)"
)


def probe_import() -> tuple[float, float]:
    """(seconds to import liemult, seconds of liemult.catalog's own import)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-X", "importtime", "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    catalog_us = None
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "liemult.catalog":
            catalog_us = int(parts[0].split()[-1])
    if catalog_us is None:
        raise RuntimeError("import probe did not import liemult.catalog")
    return float(proc.stdout.strip()), catalog_us / 1e6


def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "loadavg_at_start": list(os.getloadavg()),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def measure(wl, seed: int, seconds: float, trace: bool, pins) -> dict:
    """Set up, run the workload, and return the result with its details."""
    import hostspeed
    import workloads as W
    from tracer import Tracer

    workdir = BENCH_DIR / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, catalog_import = [], []

        def set_up():
            import_s, catalog_s = probe_import()
            t0 = time.perf_counter()
            paths = W.write_inputs(wl, seed, workdir)
            return import_s + time.perf_counter() - t0, catalog_s, paths

        while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
        ):
            (setup_s, catalog_s, paths), wall, ref = hostspeed.timed(set_up)
            setups.append(setup_s * ref / wall)
            catalog_import.append(catalog_s)
        ops = W.make_ops(wl, paths)
        tally = W.Tally()
        details: dict = {"setup_samples_ref_s": setups}
        start = time.perf_counter()
        if not trace:
            details["rounds"] = W.time_ops(wl, ops, seconds, pins, tally)
            W.cross_check(wl, ops, tally)
            values = {
                "solve_q_s": sum(statistics.median(op.ref_samples)
                                 for op in ops if op.field == "Q" and op.ref_samples),
                "solve_gfp_s": sum(statistics.median(op.ref_samples)
                                   for op in ops if op.field == W.GFP and op.ref_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setups),
            }
            details["wall_best_s"] = {
                spec: sum(min(op.samples) for op in ops if op.field == spec and op.samples)
                for spec in W.FIELDS
            }
            units = END_TO_END
        else:
            tracer = Tracer()
            rounds = []
            while True:
                round_start = time.perf_counter()
                rounds.append(W.trace_round(wl, ops, pins, tally, tracer))
                if not W.another_round(start, round_start, seconds):
                    break
            W.cross_check(wl, ops, tally)
            values = {name: statistics.median(r[name] for r in rounds)
                      for name in PER_LAYER if name in rounds[0]}
            values["catalog.import_s"] = statistics.median(catalog_import)
            details["rounds"] = len(rounds)
            details["per_round"] = rounds
            details["spans"] = tracer.spans
            units = PER_LAYER
        details["measured_s"] = time.perf_counter() - start
        details["operations"] = {
            op.key: {
                "field": op.field,
                "count": len(op.samples),
                "best_s": min(op.samples, default=None),
                "median_s": statistics.median(op.samples) if op.samples else None,
                "slowest_s": max(op.samples, default=None),
                "samples_s": op.samples,
                "median_ref_s": statistics.median(op.ref_samples) if op.ref_samples else None,
                "samples_ref_s": op.ref_samples,
            }
            for op in ops
        }
        details["errors"] = tally.errors
        details["children_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            "details": details,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def import_program():
    """Import liemult from this checkout's src/ only, never from elsewhere."""
    if not (SRC / "liemult" / "__init__.py").is_file():
        raise ImportError(f"no liemult package under {SRC}")
    sys.path.insert(0, str(SRC))
    import liemult

    if SRC.resolve() not in Path(liemult.__file__).resolve().parents:
        raise ImportError(f"liemult was imported from {liemult.__file__}, not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes (n <= 8)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads as W

    prov = provenance(args)
    wl = (W.TINY if args.tiny else W.WORKLOADS)[args.workload]
    result = measure(wl, args.seed, args.seconds, bool(args.trace), W.default_pins())

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **result}, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    failed_ops = result["failed"] / result["attempted"]
    print(f"failed_ops {failed_ops!r} share ({result['failed']} of {result['attempted']})")
    for err in result["details"]["errors"]:
        print(f"FAILED {err}")
    print(f"result file {out_file.relative_to(ROOT)}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
