"""Workloads of the liemult benchmark: seeded inputs, operations, checks and
the traced replay of each operation as its public library steps.

An operation is one CLI invocation, run in process through
``liemult.cli.main(argv)`` with stdout captured.  Every operation runs once
over Q and once over GF(p), p = 2^31 - 1.  The CLI parses or builds fresh
algebras on every call, so no repeat can hit the memoized ``_series``,
``_center``, ``_multiplier_dim`` or ``_rref`` of an earlier one; the replay
keeps the same rule by parsing or building its own objects each time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from liemult import algfile, catalog, cli
from liemult.algebra import build
from liemult.errors import TupleSpaceTooLarge
from liemult.fields import QQ, parse_field_spec
from liemult.homology import boundary_matrices
from liemult.linalg import Matrix
from liemult.words import psi_image_dim
import hostspeed
from tracer import NullTracer

GFP = "GF(2147483647)"
FIELDS = ("Q", GFP)
FIELD_TAG = {"Q": "Q", GFP: "GFp"}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "multiplier" or "sweep"
    sizes: tuple[int, ...] = ()  # multiplier: the n of each input algebra
    dense: bool = False  # multiplier: apply a seeded unimodular basis change
    max_dim: int = 0  # sweep: --max-dim


# Full-size workloads, and the tiny variants the self-test runs (n <= 8).
WORKLOADS = {
    "multiplier-sparse": Workload("multiplier-sparse", "multiplier", sizes=(16, 20, 24)),
    "multiplier-dense": Workload("multiplier-dense", "multiplier", sizes=(11, 12, 13), dense=True),
    "bound-sweep": Workload("bound-sweep", "sweep", max_dim=14),
}
TINY = {
    "multiplier-sparse": Workload("multiplier-sparse", "multiplier", sizes=(6, 7, 8)),
    "multiplier-dense": Workload("multiplier-dense", "multiplier", sizes=(6, 7, 8), dense=True),
    "bound-sweep": Workload("bound-sweep", "sweep", max_dim=8),
}


@dataclass
class Pins:
    """Exact values every output is checked against."""

    # dim M(filiform-n): the standard family attains the parity bound.  A basis
    # change must not move it, so dense and sparse inputs share this table.
    dim_m: dict[int, int]
    # sha256 of `report --family filiform --max-dim N --format machine
    # --jobs 1 --field F`, keyed by (F, N); the report is byte-stable.
    sweep_sha256: dict[tuple[str, int], str]


def default_pins() -> Pins:
    return Pins(
        dim_m={6: 3, 7: 4, 8: 4, 11: 6, 12: 6, 13: 7, 16: 8, 20: 10, 24: 12},
        sweep_sha256={
            ("Q", 14): "f0834813ad19fcfad3373a4c5a30ab97d73df92ce74d0351d6a6e2ddb385e042",
            (GFP, 14): "31437a77ea25984953ddbdefeb2e8aca05103ca681ef0f354497fbb401c4a6df",
            ("Q", 8): "3e8a167e06cbf92f90865f35cc94ab3e55707250a28b78eefd5c534b9dc5af21",
            (GFP, 8): "8e4d36d14ad0ee5cca9a17166615f57e9ce9ea37f82c2cb241a752a2e98fe054",
        },
    )


# -- seeded inputs --------------------------------------------------------------


def random_unimodular(rng: random.Random, n: int) -> Matrix:
    """Unit lower times unit upper triangular integer matrix, entries of each
    factor in [-3, 3]: determinant 1, so the inverse is integral too."""
    lower = [[1 if i == j else (rng.randint(-3, 3) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-3, 3) if i < j else 0) for j in range(n)] for i in range(n)]
    return Matrix(QQ, lower) @ Matrix(QQ, upper)


def write_inputs(wl: Workload, seed: int, workdir: Path) -> dict[tuple[int, str], Path]:
    """Write the workload's .alg files for both fields; returns {(n, field): path}.

    The GF(p) algebra is the reduction of the Q one: the basis change is
    unimodular, so the Q structure constants are integers.
    """
    gfp = parse_field_spec(GFP)
    paths = {}
    for n in wl.sizes:
        L = catalog.standard_filiform(n)
        if wl.dense:
            L = L.change_basis(random_unimodular(random.Random(seed * 1000 + n), n))
        consts = L.structure_constants()
        if any(c.denominator != 1 for *_, c in consts):
            raise RuntimeError(f"basis-changed filiform-{n} has non-integral structure constants")
        reduced = build(n, [(i, j, k, c.numerator) for i, j, k, c in consts], field=gfp)
        for spec, algebra in (("Q", L), (GFP, reduced)):
            path = workdir / f"{'dense' if wl.dense else 'sparse'}-{n}-{FIELD_TAG[spec]}.alg"
            path.write_text(algfile.serialize_algebra(algebra), encoding="utf-8")
            paths[(n, spec)] = path
    return paths


# -- operations -------------------------------------------------------------------


@dataclass
class Op:
    key: str
    field: str
    argv: list[str]
    n: int = 0  # multiplier ops
    path: Path | None = None  # multiplier ops
    samples: list[float] = field(default_factory=list)  # wall seconds
    ref_samples: list[float] = field(default_factory=list)  # reference seconds
    values: list = field(default_factory=list)


def make_ops(wl: Workload, paths) -> list[Op]:
    ops = []
    if wl.kind == "multiplier":
        for n in wl.sizes:
            for spec in FIELDS:
                path = paths[(n, spec)]
                argv = ["multiplier", "--file", str(path), "--format", "machine"]
                ops.append(Op(f"{path.stem}", spec, argv, n=n, path=path))
    else:
        for spec in FIELDS:
            argv = ["report", "--family", "filiform", "--max-dim", str(wl.max_dim),
                    "--format", "machine", "--jobs", "1", "--field", spec]
            ops.append(Op(f"report-{wl.max_dim}-{FIELD_TAG[spec]}", spec, argv))
    return ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI call in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(wl: Workload, op: Op, rc: int, out: str, pins: Pins):
    """Returns the checked value (dim M, or the parsed report), or raises
    ValueError describing the mismatch."""
    if rc != 0:
        raise ValueError(f"{op.key}: exit code {rc}")
    if wl.kind == "multiplier":
        doc = json.loads(out)
        if doc["field"] != op.field:
            raise ValueError(f"{op.key}: field {doc['field']!r}, expected {op.field!r}")
        if doc["dim_multiplier"] != pins.dim_m[op.n]:
            raise ValueError(f"{op.key}: dim M = {doc['dim_multiplier']}, pinned {pins.dim_m[op.n]}")
        return doc["dim_multiplier"]
    digest = sha256(out)
    pinned = pins.sweep_sha256.get((op.field, wl.max_dim))
    if digest != pinned:
        raise ValueError(f"{op.key}: report sha256 {digest}, pinned {pinned}")
    return json.loads(out)


def sweep_projection(doc: dict) -> list[tuple]:
    """The exact values of a machine report that the replay recomputes."""
    out = []
    for rep in doc["reports"]:
        psi = tuple((p["i"], p["dim"], p["exact"], p["mode"]) for p in rep["pinching"]["per_degree"])
        ideals = tuple(
            (r["dim_K"], r["dim_multiplier_quotient"], r["lhs"], r["rhs"], r["holds"])
            for r in rep["central_ideal_records"]
        )
        out.append((rep["n"], rep["dim_multiplier"], tuple(rep["series_dims"]), psi, ideals))
    return out


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def cross_check(wl: Workload, ops: list[Op], tally: Tally) -> None:
    """Every repeat of an operation gives one value, and Q agrees with GF(p)."""
    first = {}
    for op in ops:
        if not op.values:
            continue
        values = [v if wl.kind == "multiplier" else sweep_projection(v) for v in op.values]
        if any(v != values[0] for v in values):
            tally.fail(f"{op.key}: repeats disagree")
        first.setdefault(op.n, {})[op.field] = values[0]
    for n, by_field in first.items():
        if len(by_field) == 2 and by_field["Q"] != by_field[GFP]:
            tally.fail(f"Q and {GFP} disagree (n={n or 'sweep'})")


# Within a round an operation repeats until it has run this long, so cheap
# operations collect more samples and their median steadies.
MIN_OP_ROUND_S = 0.5


def time_ops(wl: Workload, ops: list[Op], seconds: float, pins: Pins, tally: Tally) -> int:
    """Repeat rounds of every operation for about ``seconds``; returns the
    number of rounds (at least one)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for op in ops:
            spent = 0.0
            while spent < MIN_OP_ROUND_S:
                tally.attempted += 1
                try:
                    (rc, out), wall, ref = hostspeed.timed(lambda: run_cli(op.argv))
                    value = check_output(wl, op, rc, out, pins)
                except Exception as exc:  # a failed operation is counted, not fatal
                    tally.fail(f"{op.key}: {exc!r}")
                    break
                op.samples.append(wall)
                op.ref_samples.append(ref)
                op.values.append(value)
                spent += wall
        rounds += 1
        if not another_round(start, round_start, seconds):
            return rounds


def another_round(start: float, round_start: float, seconds: float) -> bool:
    """Start another round only if it is expected to end nearer to
    ``seconds`` than stopping now does."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 < seconds


# -- traced replay ------------------------------------------------------------------

LIBRARY_LAYERS = ("algfile", "catalog", "algebra", "homology", "linalg", "words", "bounds")


def _multiplier_steps(tr, L, counts: dict) -> int:
    """``multiplier_dim`` as its public steps: series first, so its time lands
    in algebra.series and not inside the nilpotency check."""
    with tr.span("algebra.series"):
        L.lower_central_series()
    with tr.span("homology.boundary"):
        pair = boundary_matrices(L)
    with tr.span("linalg.rank_d2"):
        r2 = pair.d2.rank()
    with tr.span("linalg.rank_d3"):
        r3 = pair.d3.rank()
    with tr.span("bench.count"):
        counts["homology.d3_rows"] += pair.d3.nrows
        counts["homology.d3_cols"] += pair.d3.ncols
        counts["homology.d3_cells"] += pair.d3.nrows * pair.d3.ncols
        counts["homology.d3_nnz"] += sum(1 for row in pair.d3.rows() for e in row if e)
        counts["linalg.rank_d3"] += r3
    return comb(L.n, 2) - r2 - r3


def _sweep_task(tr, n: int, fld, counts: dict) -> tuple:
    """One `report` task (cli._bound_report_for) as its public steps.  Not
    ``bound_report`` itself, which would recompute the ψ images."""
    with tr.span("catalog.build"):
        L = catalog.standard_filiform(n, field=fld)
    dim_m = _multiplier_steps(tr, L, counts)
    series = L.lower_central_series()
    psi = []
    for i in range(2, series.nilpotency_class + 1):
        with tr.span("words.psi"):
            try:
                image = psi_image_dim(L, i, "exact")
            except TupleSpaceTooLarge:
                image = psi_image_dim(L, i, "generators")
                counts["words.psi_fallbacks"] += 1
        counts["words.psi_tuples"] += image.tuples_examined
        psi.append((image.i, image.dim, image.exact, image.mode))
    with tr.span("algebra.center"):
        ideals = L.central_ideals()
    counts["bounds.central_ideals"] += len(ideals)
    records = []
    for K in ideals:
        # verify_central_quotient_bound, step by step.
        with tr.span("bounds.thm13"):
            if not L.center().contains_subspace(K):
                raise ValueError(f"filiform-{n}: central_ideals() gave a non-central ideal")
            cap = L.derived_subalgebra().dim_intersection(K)
            with tr.span("algebra.quotient"):
                pres = L.quotient(K)
            q = pres.quotient
            dim_m_q = _multiplier_steps(tr, q, counts)
            ab_dim = q.n - q.derived_subalgebra().dim
            lhs = dim_m + cap
            rhs = dim_m_q + comb(K.dim, 2) + ab_dim * K.dim
        records.append((K.dim, dim_m_q, lhs, rhs, lhs <= rhs))
    return (n, dim_m, series.dims(), tuple(psi), tuple(records))


def replay(wl: Workload, op: Op, tr, counts: dict):
    """The operation's public library steps; returns what check_output's
    value reduces to (dim M, or the sweep projection)."""
    if wl.kind == "multiplier":
        text = op.path.read_text(encoding="utf-8")
        with tr.span("algfile.parse"):
            L = algfile.parse_algebra(text)
        return _multiplier_steps(tr, L, counts)
    fld = parse_field_spec(op.field)
    out = []
    for n in range(3, wl.max_dim + 1):
        with tr.span("cli.task"):
            out.append(_sweep_task(tr, n, fld, counts))
    return out


TIMED_SPANS = ("algfile.parse", "catalog.build", "algebra.series", "algebra.center",
               "algebra.quotient", "homology.boundary", "linalg.rank_d2", "linalg.rank_d3",
               "words.psi", "bounds.thm13")
COUNTS = ("homology.d3_rows", "homology.d3_cols", "homology.d3_cells", "homology.d3_nnz",
          "linalg.rank_d3", "words.psi_tuples", "words.psi_fallbacks", "bounds.central_ideals")


def trace_round(wl: Workload, ops: list[Op], pins: Pins, tally: Tally, tracer) -> dict[str, float]:
    """Each operation three ways: the CLI untraced, the replay untraced, the
    replay traced.  Returns the round's per-layer metrics."""
    first = len(tracer.spans)
    cli_time = dict.fromkeys(FIELDS, 0.0)
    out_bytes = 0
    traced = untraced = 0.0
    counts = {spec: dict.fromkeys(COUNTS, 0) for spec in FIELDS}
    for op in ops:
        tally.attempted += 1
        try:
            t0 = time.perf_counter()
            rc, out = run_cli(op.argv)
            elapsed = time.perf_counter() - t0
            value = check_output(wl, op, rc, out, pins)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.fail(f"{op.key}: {exc!r}")
            continue
        op.samples.append(elapsed)
        op.values.append(value)
        cli_time[op.field] += elapsed
        out_bytes += len(out.encode("utf-8"))
        expected = value if wl.kind == "multiplier" else sweep_projection(value)
        for traced_run in (False, True):
            tally.attempted += 1
            try:
                if traced_run:
                    tracer.op = op.key
                    root = len(tracer.spans)
                    with tracer.span("op"):
                        got = replay(wl, op, tracer, counts[op.field])
                    traced += tracer.spans[root][2] - tracer.spans[root][1]
                else:
                    t0 = time.perf_counter()
                    got = replay(wl, op, NullTracer(), dict.fromkeys(COUNTS, 0))
                    untraced += time.perf_counter() - t0
                if got != expected:
                    raise ValueError(f"replay gives {got!r}, the CLI {expected!r}")
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.fail(f"{op.key} replay: {exc!r}")

    self_time = tracer.self_times(first)
    m = {f"{name}_s": self_time.get(name, 0.0) for name in TIMED_SPANS}
    library = sum(t for name, t in self_time.items() if name.split(".")[0] in LIBRARY_LAYERS)
    cli_total = sum(cli_time.values())
    tasks = [end - start for name, start, end, *_ in tracer.spans[first:] if name == "cli.task"]
    q = counts["Q"]
    tuples = sum(c["words.psi_tuples"] for c in counts.values())
    m.update({
        "homology.d3_rows": q["homology.d3_rows"],
        "homology.d3_cols": q["homology.d3_cols"],
        "homology.d3_nnz": q["homology.d3_nnz"],
        "homology.d3_density": q["homology.d3_nnz"] / q["homology.d3_cells"] if q["homology.d3_cells"] else 0.0,
        "linalg.rank_d3": q["linalg.rank_d3"],
        "fields.q_over_gfp": cli_time["Q"] / cli_time[GFP] if cli_time[GFP] else 0.0,
        "words.psi_tuples": q["words.psi_tuples"],
        "words.psi_us_per_tuple": 1e6 * m["words.psi_s"] / tuples if tuples else 0.0,
        "words.psi_fallbacks": q["words.psi_fallbacks"],
        "bounds.central_ideals": q["bounds.central_ideals"],
        "cli.overhead_s": cli_total - library,
        "cli.output_bytes": out_bytes,
        "cli.task_sum_s": sum(tasks),
        "cli.task_max_s": max(tasks, default=0.0),
        "trace.overhead_s": traced - untraced,
        "trace.spans": len(tracer.spans) - first,
    })
    # Kept for the result file: which layer dominates over each field.
    m["self_s_by_field"] = {
        spec: tracer.self_times(first, {op.key for op in ops if op.field == spec}) for spec in FIELDS
    }
    return m
