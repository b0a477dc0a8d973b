"""Command-line interface.

Commands: check, series, multiplier, psi, lemma-test, verify-bound,
verify-thm13, catalog, report.  Machine-format output is JSON with sorted
keys and no timestamps, so identical inputs give byte-identical reports.

Exit codes: 0 success / all verdicts hold, 1 input or usage error,
2 a violated verdict, 3 a resource guard refused the computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import algfile, bounds, catalog
from .algebra import LieAlgebra, _check_central_ideals
from .errors import AlgebraFileError, LieError, ResourceLimit
from .fields import QQ, parse_field_spec
from .homology import _check_dimension, multiplier_dim
from .words import free_defect, psi_image_dim

REPORT_FORMAT = "liemult-report-v1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3

# Sweep options are parsed with no default, so that one given with --file or
# --name, which read none of them, can be refused; these fill in the rest.
SWEEP_DEFAULTS = {"min_dim": 3, "max_dim": 8, "jobs": 1}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract here
    reserves 2 for violated verdicts, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="liemult", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_args(p, single=True, family=False):
        # One input source: an algebra by file or name, or a family sweep.
        source = p.add_mutually_exclusive_group()
        if single:
            source.add_argument("--file", help="algebra definition file")
            source.add_argument("--name", help="catalog name")
        if family:
            source.add_argument("--family", choices=list(catalog.FAMILIES))
            p.add_argument("--max-dim", type=int)
            p.add_argument("--min-dim", type=int)
        p.add_argument("--field", default=None, help="field for --name/--family (Q or GF(p))")
        # No default, like the sweep options, so that an unread one can be refused.
        p.add_argument("--unsafe-char-2", action="store_true", default=None)

    def add_output_args(p):
        p.add_argument("--format", choices=["human", "machine"], default="human")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("check", help="parse and validate an algebra definition")
    add_input_args(p)
    add_output_args(p)

    p = sub.add_parser("series", help="lower central series dimensions")
    add_input_args(p)
    add_output_args(p)

    p = sub.add_parser("multiplier", help="dimension of the Schur multiplier")
    add_input_args(p)
    add_output_args(p)

    p = sub.add_parser("psi", help="image dimension of the degree-i tensor map")
    add_input_args(p)
    add_output_args(p)
    p.add_argument("--i", type=int, required=True)

    p = sub.add_parser("lemma-test", help="prove the bracket identity in the free Lie ring over Z")
    add_output_args(p)
    p.add_argument("--i", type=int, default=None, help="single word degree (default: 3 to 6)")

    p = sub.add_parser("verify-bound", help="evaluate all multiplier bounds")
    add_input_args(p, family=True)
    add_output_args(p)
    p.add_argument("--jobs", type=_count)

    p = sub.add_parser("verify-thm13", help="central-ideal inequality over all central ideals")
    add_input_args(p)
    add_output_args(p)

    p = sub.add_parser("catalog", help="list built-in algebras")
    add_output_args(p)

    p = sub.add_parser("report", help="per-dimension bound table for a family")
    add_input_args(p, single=False, family=True)
    add_output_args(p)
    p.add_argument("--jobs", type=_count)
    p.set_defaults(family="filiform")

    parser.commands = sub.choices
    return parser


def _check_args(p: _Parser, args) -> None:
    """Refuse, as usage errors of command parser ``p``, the options that the
    input source does not read: ``--field`` with ``--file``, whose field the
    file names, ``--min-dim``, ``--max-dim`` and ``--jobs`` with ``--file``
    or ``--name``, and ``--unsafe-char-2`` with ``--name`` or a family sweep
    (``--family``, which ``report`` always is) when no ``--field`` names a
    field.  Then fill in the sweep defaults and refuse a sweep range that
    holds no algebra."""
    # --unsafe-char-2 admits GF(2) where a field is named: by --field or in a file.
    char_two = [] if getattr(args, "field", None) else ["unsafe_char_2"]
    for source, unread in (("file", ["field", *SWEEP_DEFAULTS]),
                           ("name", [*SWEEP_DEFAULTS, *char_two]), ("family", char_two)):
        if getattr(args, source, None):
            for dest in unread:
                if getattr(args, dest, None) is not None:
                    flag = "--" + dest.replace("_", "-")
                    p.error(f"argument {flag}: not allowed with argument --{source}")
    for dest, value in SWEEP_DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    if getattr(args, "family", None) and not _family_dims(args):
        p.error(f"--min-dim {args.min_dim} and --max-dim {args.max_dim} "
                f"select no {args.family} algebra")


def _resolve_field(args):
    if getattr(args, "field", None):
        return parse_field_spec(args.field, allow_char_two=bool(args.unsafe_char_2))
    return QQ


def _load_algebra(args) -> tuple[LieAlgebra, str]:
    if getattr(args, "file", None):
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise AlgebraFileError(
                f"{args.file}: not UTF-8 text "
                f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
            ) from None
        return algfile.parse_algebra(text, allow_char_two=bool(args.unsafe_char_2)), args.file
    if getattr(args, "name", None):
        entry = catalog.get(args.name)
        # Every entry is its family's builder at params[0], over any field.
        L = catalog.FAMILIES[entry.family].builder(entry.params[0], field=_resolve_field(args))
        return L, entry.name
    raise LieError("one of --file or --name is required")


def _family_dims(args) -> range:
    """The dimensions of a ``--family`` sweep."""
    return range(max(args.min_dim, catalog.FAMILIES[args.family].least_n), args.max_dim + 1)


def _emit(args, human_text: str, machine_doc) -> None:
    if args.format == "machine":
        payload = json.dumps(machine_doc, sort_keys=True, indent=2) + "\n"
    else:
        payload = human_text if human_text.endswith("\n") else human_text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _table(headers: list[str], rows: list[list]) -> str:
    cells = [headers] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, r in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- command handlers ---------------------------------------------------------


def _cmd_check(args) -> int:
    L, name = _load_algebra(args)
    series = L.lower_central_series()
    doc = {
        "format": REPORT_FORMAT,
        "command": "check",
        "algebra": name,
        "field": str(L.field),
        "n": L.n,
        "nilpotent": series.nilpotent,
        "class": series.nilpotency_class,
        "series_dims": list(series.dims()),
        "brackets": sum(map(len, L._integer_table.values())),
    }
    human = (
        f"ok: {name}: dim {L.n} over {L.field}, "
        + (f"nilpotent of class {series.nilpotency_class}" if series.nilpotent else "not nilpotent")
    )
    _emit(args, human, doc)
    return EXIT_OK


def _cmd_series(args) -> int:
    L, name = _load_algebra(args)
    series = L.lower_central_series()
    doc = {
        "format": REPORT_FORMAT,
        "command": "series",
        "algebra": name,
        "dims": list(series.dims()),
        "nilpotent": series.nilpotent,
        "class": series.nilpotency_class,
    }
    human = " ".join(str(d) for d in series.dims())
    if not series.nilpotent:
        human += "  (stabilized: not nilpotent)"
    _emit(args, human, doc)
    return EXIT_OK


def _cmd_multiplier(args) -> int:
    L, name = _load_algebra(args)
    dim = multiplier_dim(L)
    doc = {
        "format": REPORT_FORMAT,
        "command": "multiplier",
        "algebra": name,
        "field": str(L.field),
        "dim_multiplier": dim,
    }
    _emit(args, str(dim), doc)
    return EXIT_OK


def _cmd_psi(args) -> int:
    L, name = _load_algebra(args)
    image = psi_image_dim(L, args.i)
    doc = {
        "format": REPORT_FORMAT,
        "command": "psi",
        "algebra": name,
        "i": image.i,
        "dim": image.dim,
        "exact": image.exact,
        "mode": image.mode,
        "tuples_examined": image.tuples_examined,
    }
    _emit(args, f"dim im psi_{image.i} = {image.dim} (exact, exact mode)", doc)
    return EXIT_OK


def _cmd_lemma_test(args) -> int:
    degrees = [args.i] if args.i is not None else [3, 4, 5, 6]
    ring = "free associative ring over Z"
    for i in degrees:
        defect = free_defect(i)
        if defect:
            monomial, coefficient = min(defect.items())
            doc = {
                "format": REPORT_FORMAT,
                "command": "lemma-test",
                "holds": False,
                "i": i,
                "ring": ring,
                "nonzero_monomials": len(defect),
                "monomial": list(monomial),
                "coefficient": coefficient,
            }
            word = " ".join(f"x{t}" for t in monomial)
            _emit(args, f"FAIL: the defect at degree {i} has {len(defect)} nonzero monomials "
                        f"in the {ring}, e.g. {coefficient} * {word}", doc)
            return EXIT_VIOLATION
    doc = {
        "format": REPORT_FORMAT,
        "command": "lemma-test",
        "holds": True,
        "degrees": degrees,
        "ring": ring,
    }
    _emit(args, f"ok: the defect is 0 in the {ring} at degrees {degrees}, so the identity "
                "holds in every Lie algebra", doc)
    return EXIT_OK


def _bound_row(doc: dict) -> list:
    """One ``verify-bound`` table row from a ``BoundReport.to_dict()``."""
    def cell(key):
        item = doc["bounds"][key]
        return item["verdict"] if item["value"] is None else f"{item['value']} ({item['verdict']})"

    return [doc["algebra"], doc["n"], doc["dim_multiplier"], cell("main_theorem"),
            cell("nminus2"), cell("derived_subalgebra"), cell("moneyhun")]


def _bound_report_for(spec) -> dict:
    family, n, field, with_ideals = spec
    L = catalog.FAMILIES[family].builder(n, field=field)
    doc = bounds.bound_report(L, algebra_id=f"{family}-{n}").to_dict()
    if with_ideals:
        doc["central_ideal_records"] = [
            bounds.verify_central_quotient_bound(L, K).to_dict()
            for K in L.central_ideals()
        ]
    return doc


def _sweep_reports(args, field, with_ideals: bool = False) -> list[dict]:
    # The largest algebra comes last; the guards refuse it before the first
    # report is computed.  Its center is the largest of the family's.
    _check_dimension(args.max_dim)
    if with_ideals:
        largest = catalog.FAMILIES[args.family].builder(args.max_dim, field=field)
        _check_central_ideals(largest.center().dim)
    # The field object itself goes to each task (it pickles), so its
    # modulus is checked once per sweep, not once per dimension.
    specs = [(args.family, n, field, with_ideals) for n in _family_dims(args)]
    workers = min(args.jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process pool costs every other command memory.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_bound_report_for, specs))
    return [_bound_report_for(s) for s in specs]


def _dicts_to_reports_exit(docs: list[dict]) -> int:
    for doc in docs:
        for item in doc["bounds"].values():
            if item["verdict"] == bounds.VIOLATED:
                return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify_bound(args) -> int:
    if getattr(args, "family", None):
        docs = _sweep_reports(args, _resolve_field(args))
    else:
        L, name = _load_algebra(args)
        docs = [bounds.bound_report(L, algebra_id=name).to_dict()]
    doc = {"format": REPORT_FORMAT, "command": "verify-bound", "reports": docs}
    headers = ["algebra", "n", "dim M", "parity bound", "n-2", "derived", "quadratic"]
    _emit(args, _table(headers, [_bound_row(d) for d in docs]), doc)
    return _dicts_to_reports_exit(docs)


def _cmd_verify_thm13(args) -> int:
    L, name = _load_algebra(args)
    records = []
    ok = True
    for K in L.central_ideals():
        rec = bounds.verify_central_quotient_bound(L, K)
        records.append(rec)
        ok = ok and rec.holds
    doc = {
        "format": REPORT_FORMAT,
        "command": "verify-thm13",
        "algebra": name,
        "records": [r.to_dict() for r in records],
        "holds": ok,
    }
    headers = ["dim K", "lhs", "rhs", "verdict"]
    rows = [
        [r.dim_k, r.lhs, r.rhs, "holds" + (" (equality)" if r.equality else "") if r.holds else "VIOLATED"]
        for r in records
    ]
    _emit(args, _table(headers, rows), doc)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_catalog(args) -> int:
    rows = []
    docs = []
    for entry in catalog.entries():
        L = catalog.FAMILIES[entry.family].builder(entry.params[0])
        rows.append([
            entry.name,
            ", ".join(entry.aliases) or "-",
            L.n,
            L.nilpotency_class(),
            entry.known_multiplier_dim if entry.known_multiplier_dim is not None else "-",
        ])
        docs.append({
            "name": entry.name,
            "aliases": list(entry.aliases),
            "n": L.n,
            "class": L.nilpotency_class(),
            "known_multiplier_dim": entry.known_multiplier_dim,
            "provenance": entry.provenance,
        })
    doc = {"format": REPORT_FORMAT, "command": "catalog", "entries": docs}
    _emit(args, _table(["name", "aliases", "n", "class", "known dim M"], rows), doc)
    return EXIT_OK


def _cmd_report(args) -> int:
    field = _resolve_field(args)
    docs = _sweep_reports(args, field, with_ideals=True)
    columns = ["n", "dim_multiplier", "main_theorem_bound", "attained", "margin"]
    rows = []
    for d in docs:
        item = d["bounds"]["main_theorem"]
        value = item["value"]
        # An out-of-scope value (char 2) bounds nothing, so it has no margin.
        in_scope = value is not None and item["verdict"] != bounds.OUT_OF_SCOPE
        margin = value - d["dim_multiplier"] if in_scope else None
        rows.append([d["n"], d["dim_multiplier"], value, item["verdict"] == bounds.ATTAINED, margin])
    human_rows = [
        [n, dim_m, "-" if value is None else value, "yes" if attained else "no",
         "-" if margin is None else margin]
        for n, dim_m, value, attained, margin in rows
    ]
    doc = {
        "format": REPORT_FORMAT,
        "command": "report",
        "family": args.family,
        "field": str(field),
        "columns": columns,
        "rows": rows,
        "reports": docs,
    }
    _emit(args, _table(columns, human_rows), doc)
    return _dicts_to_reports_exit(docs)


_HANDLERS = {
    "check": _cmd_check,
    "series": _cmd_series,
    "multiplier": _cmd_multiplier,
    "psi": _cmd_psi,
    "lemma-test": _cmd_lemma_test,
    "verify-bound": _cmd_verify_bound,
    "verify-thm13": _cmd_verify_thm13,
    "catalog": _cmd_catalog,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(parser.commands[args.command], args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return _HANDLERS[args.command](args)
    except ResourceLimit as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
