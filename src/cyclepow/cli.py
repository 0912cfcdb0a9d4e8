"""Command-line front end.

Subcommands:

  hit     -- h(0, ell) by any or all methods for one (n, k, ell)
  trees   -- spanning-tree counts by all three routes, the analytic two
             checked against the determinant within their printed bound,
             plus resistance, forest count, and contracted tree count when
             --ell is given
  verify  -- run the full cross-method check suite and report per-check
             worst deviations (erratum fixtures are informational)
  sweep   -- write exact and analytic values over (n, k, ell) ranges to a file

A run record is the JSON object that `--format json` prints; csv and text
print its rows.  Exact values are serialized as decimal strings ("p/q" for
rationals, digit strings for integers) so no consumer ever sees a rounded
float where an exact value exists.  Output is byte-deterministic for
identical flags (including --seed); only the wall-time comment of the text
format varies.

Exit codes, the same for every command: 0 success; 1 a failed `verify`
check or an error from the computation, reported on stderr as
"error: <message>"; 2 usage error, reported after the command's usage
as "Error: <message>"; 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from mpmath import mp
from mpmath.libmp import prec_to_dps

from . import __version__, arboreal, hitting, verify
from .errors import CyclepowError, ParameterError
from .graphs import GraphSpec, check_ell
from .spectral import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    certified_bound,
    working_precision,
)

CSV_HEADER = "n,k,ell,method,value,err_bound"

_FORM_NAMES = {"exp": "exponential", "seq": "sequence"}


class _UsageError(Exception):
    """A command line that a command refuses; reported as a usage error."""


class _Parser(argparse.ArgumentParser):
    """Reports every usage error, its own and the commands', after the
    usage line as "Error: <message>" on stderr, with exit code 2."""

    def error(self, message):
        self.exit(
            2,
            f"{self.format_usage()}Try '{self.prog} --help' for help.\n\n"
            f"Error: {message}\n",
        )


def _usage_checked(call, *args):
    """call(*args), reporting a ParameterError as a usage error (exit 2)."""
    try:
        return call(*args)
    except ParameterError as exc:
        raise _UsageError(str(exc))


def _check_precision(precision: int) -> None:
    if precision < MIN_PRECISION_BITS:
        raise _UsageError(f"precision must be at least {MIN_PRECISION_BITS} bits")


def _format_value(value, precision_bits: int) -> str:
    return mp.nstr(value, prec_to_dps(precision_bits), strip_zeros=True)


def _record(cmd: str, n: int, k: int, ell: int | None, precision_bits: int) -> dict:
    """A run record with no rows yet, in the key order of `--format json`."""
    return {
        "cmd": cmd, "n": n, "k": k, "ell": ell, "results": [],
        "precision_bits": precision_bits, "seed": None, "generator": None,
    }


def _add(record: dict, label: str, value, err: str | None = None) -> None:
    """Append a row: an mpmath value to the record's precision with its
    error bound, any other value as str(value) with `err`."""
    if isinstance(value, mp.mpf):
        bits = record["precision_bits"]
        with mp.workprec(bits):
            err = mp.nstr(certified_bound(mp.mpf(value), bits), 3)
        value = _format_value(value, bits)
    record["results"].append({"method": label, "value": str(value), "err": err})


def _count_rows(record: dict, spec: GraphSpec) -> None:
    """The cross-checked arboreal_counts of the record's (spec, ell): the
    three tree counts, then with ell the resistance, forest count and
    contracted tree count."""
    ell = record["ell"]
    counts = arboreal.arboreal_counts(spec, ell, record["precision_bits"])
    _add(record, "tau_det", counts.tree_count)
    _add(record, "tau_eigen", counts.tree_count_eigen)
    _add(record, "tau_product", counts.tree_count_product)
    if ell is not None:
        _add(record, "resistance", counts.resistance)
        _add(record, "forests", counts.forest_count)
        _add(record, "tau_contracted", counts.contracted_tree_count)


def _lines(records: list[dict], fmt: str) -> list[str]:
    """The output lines of `records` in `fmt`; csv opens with its header."""
    if fmt == "json":
        return [json.dumps(r) for r in records]
    if fmt == "csv":
        return [CSV_HEADER] + [
            f"{r['n']},{r['k']},{'' if r['ell'] is None else r['ell']},"
            f"{row['method']},{row['value']},{row['err'] or ''}"
            for r in records
            for row in r["results"]
        ]
    lines = []
    for r in records:
        ell = "-" if r["ell"] is None else r["ell"]
        for row in r["results"]:
            suffix = f"  err<={row['err']}" if row["err"] else ""
            lines.append(
                f"{r['cmd']} n={r['n']} k={r['k']} ell={ell} "
                f"method={row['method']} value={row['value']}{suffix}"
            )
        if r["seed"] is not None:
            lines.append(f"# seed={r['seed']} generator={r['generator']}")
    return lines


def _emit(records: list[dict], fmt: str, started: float) -> None:
    """Print the lines of `records`; text ends with the wall time since
    `started`."""
    lines = _lines(records, fmt)
    if fmt == "text":
        lines.append(f"# wall_time_s={time.perf_counter() - started:.3f}")
    sys.stdout.write("".join(line + "\n" for line in lines))


def cmd_hit(n, k, ell, method, form, precision, walks, seed, erratum, fmt) -> None:
    """Average hitting time h(0, ell) on the (n, k) cycle power graph."""
    spec = _usage_checked(GraphSpec, n, k)
    _usage_checked(check_ell, spec, ell)
    _check_precision(precision)
    if walks < 1:
        raise _UsageError("walks must be >= 1")
    if not 0 <= seed < 2**64:
        raise _UsageError("seed must fit in 64 bits")
    methods = (
        ["exact", "spectral", "closed", "simulate"] if method == "all" else [method]
    )
    started = time.perf_counter()
    records = []
    for tag in methods:
        record = _record("hit", n, k, ell, precision)
        if tag == "exact":
            _add(record, "exact", hitting.hit_exact(spec, ell))
        elif tag == "spectral":
            _add(record, "spectral", hitting.hit_spectral(spec, ell, precision))
        elif tag == "closed":
            value = hitting.hit_closed(spec, ell, precision, _FORM_NAMES[form])
            _add(record, "closed", value)
        else:
            result = hitting.hit_simulate(spec, ell, walks, seed)
            _add(record, "simulate", repr(result.mean), repr(result.stderr))
            record.update(seed=str(seed), generator=hitting.GENERATOR_ID)
        records.append(record)
    if erratum:
        # Printed to the precision, but with no bound: the form is wrong.
        value = hitting.hit_closed_literal(spec, ell, precision)
        record = _record("hit", n, k, ell, precision)
        _add(record, "closed-literal", _format_value(value, precision))
        records.append(record)
    _emit(records, fmt, started)


def cmd_trees(n, k, ell, precision, fmt) -> None:
    """Spanning-tree counts; with --ell also resistance, forests, and the
    contracted-graph tree count."""
    spec = _usage_checked(GraphSpec, n, k)
    _check_precision(precision)
    if ell is not None:
        _usage_checked(check_ell, spec, ell, 1)
    started = time.perf_counter()
    record = _record("trees", n, k, ell, precision)
    _count_rows(record, spec)
    _emit([record], fmt, started)


def cmd_verify(kmax, nmax, precision, report) -> int:
    """Run every cross-method identity check up to the given bounds."""
    _check_precision(precision)
    started = time.perf_counter()
    results = _usage_checked(verify.run_verification, kmax, nmax, precision)
    width = max(len(result.check_id) for result in results)
    print(
        f"{'check':<{width}}  {'cases':>6}  {'worst':>11}  "
        f"{'requirement':>14}  status"
    )
    failures = []
    for result in results:
        status = "info" if result.informational else (
            "pass" if result.passed else "FAIL"
        )
        if not result.passed:
            failures.append(result)
        requirement = f"{result.comparison} {result.threshold:.3g}"
        print(
            f"{result.check_id:<{width}}  {result.cases:>6}  "
            f"{result.statistic:>11.3e}  {requirement:>14}  {status}"
        )
        if report == "full":
            detail = result.description
            if result.worst_case:
                detail += f"; worst at {result.worst_case}"
            print(f"{'':<{width}}  {detail}")
    for result in results:
        if result.informational:
            print(f"note: {result.check_id}: {result.description}")
    print(f"# wall_time_s={time.perf_counter() - started:.3f}")
    if failures:
        worst = failures[0]
        sys.stdout.flush()
        print(
            f"FAILED {worst.check_id} at {worst.worst_case or 'n/a'}",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_range(text: str, label: str) -> range:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _UsageError(f"bad {label} range {text!r}; use LO:HI")
    if lo > hi:
        raise _UsageError(f"reversed {label} range {text!r}; need LO <= HI")
    return range(lo, hi + 1)


def cmd_sweep(n_range, k_range, quantity, out_path, precision, fmt) -> int:
    """Write one row per (n, k, ell) and method over the given ranges.

    Invalid combinations (n < 2k+1) are skipped; rows are ordered by n, k,
    ell, then each quantity's fixed method order."""
    _check_precision(precision)
    ns = _parse_range(n_range, "--n-range")
    ks = _parse_range(k_range, "--k-range")
    records: list[dict] = []
    for n in ns:
        for k in ks:
            if k < 1 or n < 2 * k + 1:
                continue
            spec = GraphSpec(n, k)
            if quantity == "tau":
                record = _record("sweep", n, k, None, precision)
                _count_rows(record, spec)
                records.append(record)
                continue
            if quantity == "forests":
                contracted = arboreal.contracted_counts(spec)
            else:
                closed = hitting.hit_closed_all(spec, precision)
            for ell in range(1 if quantity == "forests" else 0, n):
                record = _record("sweep", n, k, ell, precision)
                if quantity == "hit":
                    _add(record, "exact", hitting.hit_exact(spec, ell))
                    _add(record, "closed", closed[ell])
                elif quantity == "resist":
                    _add(record, "exact", arboreal.resistance(spec, ell))
                    with working_precision(precision):
                        value = closed[ell] / spec.num_edges
                    _add(record, "closed", value)
                else:
                    _add(record, "forests", arboreal.forests(spec, ell))
                    _add(record, "tau_contracted", contracted[ell])
                records.append(record)
    text = "".join(line + "\n" for line in _lines(records, fmt))
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _command(commands, run) -> _Parser:
    """The parser of `run` (cmd_hit is `hit`), described by its docstring."""
    doc = run.__doc__
    parser = commands.add_parser(
        run.__name__[len("cmd_"):], help=doc.split("\n\n")[0], description=doc,
        add_help=False, allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.set_defaults(run=run, parser=parser)
    return parser


def _option(parser: _Parser, flag: str, help: str = "", **kwargs) -> None:
    """Add `flag` to `parser`, its help ending in "[required]" or its
    default."""
    if kwargs.get("required"):
        help += " [required]"
    elif kwargs.get("default") is not None:
        help += " [default: %(default)s]"
    parser.add_argument(flag, help=help.lstrip(), **kwargs)


def _parser(prog: str) -> _Parser:
    """The command-line parser: one subparser per command."""
    parser = _Parser(
        prog=prog,
        description="Hitting times, resistances, and tree counts on cycle "
        "power graphs.",
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"cyclepow, version {__version__}",
        help="Show the version and exit.",
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    hit = _command(commands, cmd_hit)
    _option(hit, "--n", "Vertex count (>= 2k+1).", type=int, required=True)
    _option(hit, "--k", "Jump radius (>= 1).", type=int, required=True)
    _option(hit, "--ell", "Target vertex.", type=int, required=True)
    _option(
        hit, "--method",
        choices=["exact", "spectral", "closed", "simulate", "all"], default="all",
    )
    _option(
        hit, "--form", "Correction-ratio evaluation path for the closed form.",
        choices=["exp", "seq"], default="exp",
    )
    _option(hit, "--precision", type=int, default=DEFAULT_PRECISION_BITS)
    _option(hit, "--walks", type=int, default=10000)
    _option(hit, "--seed", type=int, default=0)
    _option(
        hit, "--erratum",
        "Also report the uncorrected full-index closed form (known to "
        "deviate from the oracle; for comparison only).",
        action="store_true",
    )
    _option(
        hit, "--format", dest="fmt", choices=["json", "csv", "text"], default="text"
    )

    trees = _command(commands, cmd_trees)
    _option(trees, "--n", type=int, required=True)
    _option(trees, "--k", type=int, required=True)
    _option(trees, "--ell", type=int)
    _option(trees, "--precision", type=int, default=DEFAULT_PRECISION_BITS)
    _option(
        trees, "--format", dest="fmt", choices=["json", "csv", "text"], default="text"
    )

    checks = _command(commands, cmd_verify)
    _option(checks, "--kmax", type=int, default=3)
    _option(checks, "--nmax", type=int, default=24)
    _option(checks, "--precision", type=int, default=DEFAULT_PRECISION_BITS)
    _option(checks, "--report", choices=["summary", "full"], default="summary")

    sweep = _command(commands, cmd_sweep)
    _option(sweep, "--n-range", "Inclusive LO:HI.", required=True)
    _option(sweep, "--k-range", "Inclusive LO:HI.", required=True)
    _option(
        sweep, "--quantity", choices=["hit", "resist", "tau", "forests"],
        required=True,
    )
    _option(sweep, "--out", dest="out_path", metavar="PATH", required=True)
    _option(sweep, "--precision", type=int, default=DEFAULT_PRECISION_BITS)
    _option(sweep, "--format", dest="fmt", choices=["json", "csv"], default="csv")
    return parser


def main(args: list[str] | None = None, prog_name: str = "cyclepow"):
    """Run the command line `args` (default: sys.argv[1:]) and exit with its
    code, as SystemExit."""
    # Exact values are printed in full, past CPython's int-to-str digit limit.
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)
    params = vars(_parser(prog_name).parse_args(args))
    run, parser = params.pop("run"), params.pop("parser")
    try:
        code = run(**params)
        sys.stdout.flush()
    except _UsageError as exc:
        parser.error(str(exc))
    except CyclepowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except BrokenPipeError:
        # The reader of stdout has gone: exit 1 quietly, with stdout on
        # devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code or 0)


# benchmark/traced_cli.py runs a command line as main.main(args=...,
# prog_name=...), the call form of a click entry point.
main.main = main


if __name__ == "__main__":
    main()
