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

Exact values are serialized as decimal strings ("p/q" for rationals, digit
strings for integers) so no consumer ever sees a rounded float where an exact
value exists.  Output is byte-deterministic for identical flags (including
--seed); only the wall-time comment of the text format varies.

Exit codes, the same for every command: 0 success; 1 a failed `verify`
check or an error from the computation, reported on stderr as
"error: <message>"; 2 usage error; 3 I/O error.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import click
from mpmath import mp
from mpmath.libmp import prec_to_dps

from .arboreal import arboreal_counts, forests, resistance, tau_contracted
from .errors import CyclepowError, ParameterError
from .graphs import GraphSpec, check_ell
from .hitting import (
    GENERATOR_ID,
    hit_closed,
    hit_closed_all,
    hit_closed_literal,
    hit_exact,
    hit_simulate,
    hit_spectral,
)
from .spectral import _GUARD_BITS, MIN_PRECISION_BITS, certified_bound
from .verify import run_verification

CSV_HEADER = "n,k,ell,method,value,err_bound"

_FORM_NAMES = {"exp": "exponential", "seq": "sequence"}


def _usage_checked(call, *args):
    """call(*args), reporting a ParameterError as a usage error (exit 2)."""
    try:
        return call(*args)
    except ParameterError as exc:
        raise click.UsageError(str(exc))


def _check_precision(precision: int) -> None:
    if precision < MIN_PRECISION_BITS:
        raise click.UsageError(f"precision must be at least {MIN_PRECISION_BITS} bits")


def _format_value(value, precision_bits: int) -> str:
    return mp.nstr(value, prec_to_dps(precision_bits), strip_zeros=True)


def _bound_string(value, precision_bits: int) -> str:
    with mp.workprec(precision_bits):
        return mp.nstr(certified_bound(mp.mpf(value), precision_bits), 3)


@dataclass
class Record:
    """One run record: a (cmd, n, k, ell) context plus tagged values."""

    cmd: str
    n: int
    k: int
    ell: int | None
    precision_bits: int
    results: list[tuple[str, str, str | None]] = field(default_factory=list)
    seed: str | None = None
    generator: str | None = None

    def add(self, label: str, value) -> None:
        """Append a row: an exact int or Fraction in full with no bound, an
        mpmath value to the record's precision with its error bound."""
        if isinstance(value, (int, Fraction)):
            self.results.append((label, str(value), None))
        else:
            bits = self.precision_bits
            self.results.append(
                (label, _format_value(value, bits), _bound_string(value, bits))
            )


def _count_rows(record: Record, spec: GraphSpec) -> None:
    """The cross-checked arboreal_counts of the record's (spec, ell): the
    three tree counts, then with ell the resistance, forest count and
    contracted tree count."""
    counts = arboreal_counts(spec, record.ell, record.precision_bits)
    record.add("tau_det", counts.tree_count)
    record.add("tau_eigen", counts.tree_count_eigen)
    record.add("tau_product", counts.tree_count_product)
    if record.ell is not None:
        record.add("resistance", counts.resistance)
        record.add("forests", counts.forest_count)
        record.add("tau_contracted", counts.contracted_tree_count)


def _lines(records: list[Record], fmt: str) -> list[str]:
    """The output lines of `records` in `fmt`; csv opens with its header."""
    if fmt == "json":
        return [
            json.dumps({
                "cmd": r.cmd,
                "n": r.n,
                "k": r.k,
                "ell": r.ell,
                "results": [
                    {"method": method, "value": value, "err": err}
                    for method, value, err in r.results
                ],
                "precision_bits": r.precision_bits,
                "seed": r.seed,
                "generator": r.generator,
            })
            for r in records
        ]
    if fmt == "csv":
        return [CSV_HEADER] + [
            f"{r.n},{r.k},{'' if r.ell is None else r.ell},{method},{value},{err or ''}"
            for r in records
            for method, value, err in r.results
        ]
    lines = []
    for r in records:
        ell = "-" if r.ell is None else r.ell
        for method, value, err in r.results:
            suffix = f"  err<={err}" if err else ""
            lines.append(
                f"{r.cmd} n={r.n} k={r.k} ell={ell} "
                f"method={method} value={value}{suffix}"
            )
        if r.seed is not None:
            lines.append(f"# seed={r.seed} generator={r.generator}")
    return lines


def _emit(records: list[Record], fmt: str, started: float) -> None:
    """Echo the lines of `records`; text ends with the wall time since
    `started`."""
    lines = _lines(records, fmt)
    if fmt == "text":
        lines.append(f"# wall_time_s={time.perf_counter() - started:.3f}")
    for line in lines:
        click.echo(line)


class _Group(click.Group):
    """Reports a package error from any command as "error: <message>" on
    stderr, with exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CyclepowError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Group)
@click.version_option(package_name="cyclepow")
def main() -> None:
    """Hitting times, resistances, and tree counts on cycle power graphs."""


@main.command("hit")
@click.option("--n", type=int, required=True, help="Vertex count (>= 2k+1).")
@click.option("--k", type=int, required=True, help="Jump radius (>= 1).")
@click.option("--ell", type=int, required=True, help="Target vertex.")
@click.option(
    "--method",
    type=click.Choice(["exact", "spectral", "closed", "simulate", "all"]),
    default="all",
    show_default=True,
)
@click.option(
    "--form",
    type=click.Choice(["exp", "seq"]),
    default="exp",
    show_default=True,
    help="Correction-ratio evaluation path for the closed form.",
)
@click.option("--precision", type=int, default=256, show_default=True)
@click.option("--walks", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--erratum",
    is_flag=True,
    help="Also report the uncorrected full-index closed form (known to "
    "deviate from the oracle; for comparison only).",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv", "text"]),
    default="text",
    show_default=True,
)
def cmd_hit(n, k, ell, method, form, precision, walks, seed, erratum, fmt) -> None:
    """Average hitting time h(0, ell) on the (n, k) cycle power graph."""
    spec = _usage_checked(GraphSpec, n, k)
    _usage_checked(check_ell, spec, ell)
    _check_precision(precision)
    if walks < 1:
        raise click.UsageError("walks must be >= 1")
    if not 0 <= seed < 2**64:
        raise click.UsageError("seed must fit in 64 bits")
    methods = (
        ["exact", "spectral", "closed", "simulate"] if method == "all" else [method]
    )
    started = time.perf_counter()
    records = []
    for tag in methods:
        record = Record("hit", n, k, ell, precision)
        if tag == "exact":
            record.add("exact", hit_exact(spec, ell))
        elif tag == "spectral":
            record.add("spectral", hit_spectral(spec, ell, precision))
        elif tag == "closed":
            record.add("closed", hit_closed(spec, ell, precision, _FORM_NAMES[form]))
        else:
            result = hit_simulate(spec, ell, walks, seed)
            record.results.append(("simulate", repr(result.mean), repr(result.stderr)))
            record.seed = str(seed)
            record.generator = GENERATOR_ID
        records.append(record)
    if erratum:
        value = hit_closed_literal(spec, ell, precision)
        record = Record("hit", n, k, ell, precision)
        record.results.append(("closed-literal", _format_value(value, precision), None))
        records.append(record)
    _emit(records, fmt, started)


@main.command("trees")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--ell", type=int, default=None)
@click.option("--precision", type=int, default=256, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv", "text"]),
    default="text",
    show_default=True,
)
def cmd_trees(n, k, ell, precision, fmt) -> None:
    """Spanning-tree counts; with --ell also resistance, forests, and the
    contracted-graph tree count."""
    spec = _usage_checked(GraphSpec, n, k)
    _check_precision(precision)
    if ell is not None:
        _usage_checked(check_ell, spec, ell)
        if ell == 0:
            raise click.UsageError("ell must be nonzero for forest counts")
    started = time.perf_counter()
    record = Record("trees", n, k, ell, precision)
    _count_rows(record, spec)
    _emit([record], fmt, started)


@main.command("verify")
@click.option("--kmax", type=int, default=3, show_default=True)
@click.option("--nmax", type=int, default=24, show_default=True)
@click.option("--precision", type=int, default=256, show_default=True)
@click.option(
    "--report",
    type=click.Choice(["summary", "full"]),
    default="summary",
    show_default=True,
)
def cmd_verify(kmax, nmax, precision, report) -> None:
    """Run every cross-method identity check up to the given bounds."""
    _check_precision(precision)
    started = time.perf_counter()
    results = _usage_checked(run_verification, kmax, nmax, precision)
    width = max(len(result.check_id) for result in results)
    click.echo(
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
        click.echo(
            f"{result.check_id:<{width}}  {result.cases:>6}  "
            f"{result.statistic:>11.3e}  {requirement:>14}  {status}"
        )
        if report == "full":
            detail = result.description
            if result.worst_case:
                detail += f"; worst at {result.worst_case}"
            click.echo(f"{'':<{width}}  {detail}")
    for result in results:
        if result.informational:
            click.echo(f"note: {result.check_id}: {result.description}")
    click.echo(f"# wall_time_s={time.perf_counter() - started:.3f}")
    if failures:
        worst = failures[0]
        click.echo(
            f"FAILED {worst.check_id} at {worst.worst_case or 'n/a'}", err=True
        )
        sys.exit(1)


def _parse_range(text: str, label: str) -> range:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise click.UsageError(f"bad {label} range {text!r}; use LO:HI")
    if lo > hi:
        raise click.UsageError(f"reversed {label} range {text!r}; need LO <= HI")
    return range(lo, hi + 1)


@main.command("sweep")
@click.option("--n-range", "n_range", required=True, help="Inclusive LO:HI.")
@click.option("--k-range", "k_range", required=True, help="Inclusive LO:HI.")
@click.option(
    "--quantity",
    type=click.Choice(["hit", "resist", "tau", "forests"]),
    required=True,
)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--precision", type=int, default=256, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="csv",
    show_default=True,
)
def cmd_sweep(n_range, k_range, quantity, out_path, precision, fmt) -> None:
    """Write one row per (n, k, ell) and method over the given ranges.

    Invalid combinations (n < 2k+1) are skipped; rows are ordered by n, k,
    ell, then each quantity's fixed method order."""
    _check_precision(precision)
    ns = _parse_range(n_range, "--n-range")
    ks = _parse_range(k_range, "--k-range")
    records: list[Record] = []
    for n in ns:
        for k in ks:
            if k < 1 or n < max(3, 2 * k + 1):
                continue
            spec = GraphSpec(n, k)
            if quantity == "tau":
                record = Record("sweep", n, k, None, precision)
                _count_rows(record, spec)
                records.append(record)
                continue
            if quantity != "forests":
                closed = hit_closed_all(spec, precision)
            for ell in range(1 if quantity == "forests" else 0, n):
                record = Record("sweep", n, k, ell, precision)
                if quantity == "hit":
                    record.add("exact", hit_exact(spec, ell))
                    record.add("closed", closed[ell])
                elif quantity == "resist":
                    record.add("exact", resistance(spec, ell))
                    with mp.workprec(precision + _GUARD_BITS):
                        value = closed[ell] / spec.num_edges
                    record.add("closed", value)
                else:
                    record.add("forests", forests(spec, ell))
                    record.add("tau_contracted", tau_contracted(spec, ell))
                records.append(record)
    text = "".join(line + "\n" for line in _lines(records, fmt))
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        click.echo(f"cannot write {out_path}: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
