"""Command-line front end.

Subcommands:

  hit     -- h(0, ell) by any or all methods for one (n, k, ell)
  trees   -- spanning-tree counts by all three routes, plus resistance,
             forest count, and contracted tree count when --ell is given
  verify  -- run the full cross-method check suite and report per-check
             worst deviations (erratum fixtures are informational)
  sweep   -- write exact and analytic values over (n, k, ell) ranges to a file

Exact values are serialized as decimal strings ("p/q" for rationals, digit
strings for integers) so no consumer ever sees a rounded float where an exact
value exists.  Output is byte-deterministic for identical flags (including
--seed); only the wall-time comment of the text format varies.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error,
3 I/O error.
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

from .arboreal import (
    forests,
    resistance,
    tau_contracted,
    tau_det,
    tau_eigen,
    tau_product,
)
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
from .spectral import _GUARD_BITS, cached_factorization, residual_tolerance
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
    if precision < 64:
        raise click.UsageError("precision must be at least 64 bits")


def _format_value(value, precision_bits: int) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return mp.nstr(value, prec_to_dps(precision_bits), strip_zeros=True)


def _bound_string(value, precision_bits: int) -> str:
    with mp.workprec(precision_bits):
        bound = residual_tolerance(precision_bits) * max(1, abs(mp.mpf(value)))
        return mp.nstr(bound, 3)


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

    def to_json(self) -> str:
        payload = {
            "cmd": self.cmd,
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "results": [
                {"method": method, "value": value, "err": err}
                for method, value, err in self.results
            ],
            "precision_bits": self.precision_bits,
            "seed": self.seed,
            "generator": self.generator,
        }
        return json.dumps(payload)

    def csv_rows(self) -> list[str]:
        ell = "" if self.ell is None else str(self.ell)
        return [
            f"{self.n},{self.k},{ell},{method},{value},{err or ''}"
            for method, value, err in self.results
        ]

    def text_lines(self) -> list[str]:
        ell = "-" if self.ell is None else str(self.ell)
        lines = []
        for method, value, err in self.results:
            suffix = f"  err<={err}" if err else ""
            lines.append(
                f"{self.cmd} n={self.n} k={self.k} ell={ell} "
                f"method={method} value={value}{suffix}"
            )
        if self.seed is not None:
            lines.append(f"# seed={self.seed} generator={self.generator}")
        return lines


def _emit(records: list[Record], fmt: str, wall_time: float) -> None:
    if fmt == "json":
        for record in records:
            click.echo(record.to_json())
    elif fmt == "csv":
        click.echo(CSV_HEADER)
        for record in records:
            for row in record.csv_rows():
                click.echo(row)
    else:
        for record in records:
            for line in record.text_lines():
                click.echo(line)
        click.echo(f"# wall_time_s={wall_time:.3f}")


@click.group()
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
    try:
        for tag in methods:
            record = Record("hit", n, k, ell, precision)
            if tag == "exact":
                record.results.append(("exact", str(hit_exact(spec, ell)), None))
            elif tag == "spectral":
                value = hit_spectral(spec, ell, precision)
                record.results.append(
                    ("spectral", _format_value(value, precision),
                     _bound_string(value, precision))
                )
            elif tag == "closed":
                sf = cached_factorization(k, precision)
                value = hit_closed(spec, ell, sf, _FORM_NAMES[form])
                record.results.append(
                    ("closed", _format_value(value, precision),
                     _bound_string(value, precision))
                )
            else:
                result = hit_simulate(spec, ell, walks, seed)
                record.results.append(
                    ("simulate", repr(result.mean), repr(result.stderr))
                )
                record.seed = str(seed)
                record.generator = GENERATOR_ID
            records.append(record)
        if erratum:
            sf = cached_factorization(k, precision)
            value = hit_closed_literal(spec, ell, sf)
            record = Record("hit", n, k, ell, precision)
            record.results.append(
                ("closed-literal", _format_value(value, precision), None)
            )
            records.append(record)
    except CyclepowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _emit(records, fmt, time.perf_counter() - started)


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
    try:
        sf = cached_factorization(k, precision)
        record.results.append(("tau_det", str(tau_det(spec)), None))
        eigen = tau_eigen(spec, precision)
        record.results.append(
            ("tau_eigen", _format_value(eigen, precision),
             _bound_string(eigen, precision))
        )
        product = tau_product(spec, sf)
        record.results.append(
            ("tau_product", _format_value(product, precision),
             _bound_string(product, precision))
        )
        if ell is not None:
            record.results.append(("resistance", str(resistance(spec, ell)), None))
            record.results.append(("forests", str(forests(spec, ell)), None))
            record.results.append(
                ("tau_contracted", str(tau_contracted(spec, ell)), None)
            )
    except CyclepowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _emit([record], fmt, time.perf_counter() - started)


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
        if not result.passed and not result.informational:
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
            return range(int(lo), int(hi) + 1)
        value = int(text)
        return range(value, value + 1)
    except ValueError:
        raise click.UsageError(f"bad {label} range {text!r}; use LO:HI")


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

    Invalid combinations (n < 2k+1) are skipped; rows are ordered
    lexicographically in (n, k, ell, method)."""
    _check_precision(precision)
    ns = _parse_range(n_range, "--n-range")
    ks = _parse_range(k_range, "--k-range")
    records: list[Record] = []
    for n in ns:
        for k in ks:
            if k < 1 or n < max(3, 2 * k + 1):
                continue
            spec = GraphSpec(n, k)
            sf = cached_factorization(k, precision)
            if quantity == "tau":
                record = Record("sweep", n, k, None, precision)
                record.results.append(("tau_det", str(tau_det(spec)), None))
                eigen = tau_eigen(spec, precision)
                record.results.append(
                    ("tau_eigen", _format_value(eigen, precision),
                     _bound_string(eigen, precision))
                )
                product = tau_product(spec, sf)
                record.results.append(
                    ("tau_product", _format_value(product, precision),
                     _bound_string(product, precision))
                )
                records.append(record)
                continue
            if quantity in ("hit", "resist"):
                closed = hit_closed_all(spec, sf)
            for ell in range(n):
                record = Record("sweep", n, k, ell, precision)
                if quantity == "hit":
                    record.results.append(("exact", str(hit_exact(spec, ell)), None))
                    value = closed[ell]
                    record.results.append(
                        ("closed", _format_value(value, precision),
                         _bound_string(value, precision))
                    )
                elif quantity == "resist":
                    record.results.append(
                        ("exact", str(resistance(spec, ell)), None)
                    )
                    with mp.workprec(precision + _GUARD_BITS):
                        value = closed[ell] / spec.num_edges
                    record.results.append(
                        ("closed", _format_value(value, precision),
                         _bound_string(value, precision))
                    )
                else:  # forests
                    if ell == 0:
                        continue
                    record.results.append(("forests", str(forests(spec, ell)), None))
                    record.results.append(
                        ("tau_contracted", str(tau_contracted(spec, ell)), None)
                    )
                records.append(record)
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            if fmt == "csv":
                handle.write(CSV_HEADER + "\n")
                for record in records:
                    for row in record.csv_rows():
                        handle.write(row + "\n")
            else:
                for record in records:
                    handle.write(record.to_json() + "\n")
    except OSError as exc:
        click.echo(f"cannot write {out_path}: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
