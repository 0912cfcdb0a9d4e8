"""Cross-method verification harness.

Runs every identity and cross-check the package promises, over all valid
(n, k) with k <= kmax and n <= nmax, and reports the worst observed statistic
per check.  Exact checks report the largest integer deviation (which must be
zero); numeric checks report the largest relative deviation, _rel(a, b) =
|a - b| / max(1, |a|, |b|), against residual_tolerance(bits) = 2^(-bits/2),
the relative bound that spectral.certified_bound prints with every analytic
value; margin checks report the smallest observed margin, which must stay
above its floor.

A row must be able to fail on some input, and no row repeats another.
The integer algebra of phi_k and psi_k is checked where it is built and
pinned by tests, not reported as rows: build_psi raises unless (2 - x) *
psi_k = phi_k exactly, and partial_fractions raises unless psi_k(2) =
k(k+1)(2k+1)/6.  The roots are checked where they are made: find_roots
raises unless each root's residual |psi_k(gamma)| is within 2^(-bits/2),
and partial_fractions raises unless rho + 1/rho reproduces gamma to the same
bound.  inner_root raises DegeneracyError when rho lands within
2^(-bits/4) of the unit circle, so a root on the spectrum arc [-2, 2]
cannot pass.  Conjugate symmetry holds by construction: find_roots keeps
each real root exactly real and takes each lower root as the exact
conjugate of a polished upper root, and mpmath rounds complex operations
symmetrically, so the inner roots, coefficients and correction ratios of a
conjugate pair are exact conjugates as well (tests pin all of these).  The
correction ratio's symmetry under ell <-> N - ell also holds bit for bit by
construction and is pinned by tests alone.  The three-term recurrence is
graded through ratio-form-agreement, fibonacci-anchor and the closed-form
oracle, and against its Binet expression by a test; one doubling ladder
builds both the tables these rows read and the single ell of `hit --form
seq`, so the two agree bit for bit.  The plain-cycle sums (the discrete
quadratic identity and the eigenvalue product n^2) are the k = 1 cases of
hitting-oracle-spectral and tree-triple-agreement, over the same n; a
defect in a cosine table entry, its mirror included, fails the spectral
oracle row.

The checks form one ordered table.  Each row is a case generator
`(kmax, nmax, bits) -> (statistic, case)` registered with `@_check(id,
description, threshold, comparison)`; rows run in definition order, at
`bits + _GUARD_BITS` working precision, and one runner (`_fold`) keeps the
worst statistic and names its case.  Adding a check means writing one such
generator under its decorator.

Two rows are informational erratum fixtures: the full-index sequence ratio
and the doubled-index Fibonacci variant of the k=2 closed form reproduce a
published-but-wrong value, and the report shows how far they sit from the
exact oracle without ever failing the run.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

from mpmath import mp

from .arboreal import (
    forests,
    tau_contracted,
    tau_det,
    tau_eigen,
    tau_product,
)
from .errors import ParameterError
from .graphs import GraphSpec, build_laplacian
from .hitting import (
    cosine_table,
    hit_closed_all,
    hit_closed_literal,
    hit_exact_all,
    hit_spectral,
)
from .polynomials import build_phi, eval_poly
from .recurrences import correction_ratios
from .spectral import (
    _GUARD_BITS,
    cached_factorization,
    check_decomposition,
    residual_tolerance,
)

__all__ = ["CheckResult", "run_verification"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check.

    `statistic` is the worst value observed across all cases and must satisfy
    `statistic <comparison> threshold` for the check to pass.  Informational
    checks (the erratum fixtures) never fail the run.
    """

    check_id: str
    description: str
    cases: int
    statistic: float
    threshold: float
    comparison: str
    passed: bool
    worst_case: str = ""
    informational: bool = False


Cases = Callable[[int, int, int], Iterator[tuple[float, str]]]


@dataclass(frozen=True)
class _Check:
    """One row of the table.  `description` and `threshold` may be callables
    of the precision in bits; a threshold callable's value goes through float()."""

    check_id: str
    description: str | Callable[[int], str]
    threshold: float | Callable[[int], object]
    comparison: str
    informational: bool
    cases: Cases


_CHECKS: list[_Check] = []


def _check(
    check_id: str,
    description: str | Callable[[int], str],
    threshold: float | Callable[[int], object] = 0.0,
    comparison: str = "<=",
    informational: bool = False,
) -> Callable[[Cases], Cases]:
    """Register the decorated case generator as the next row of the table."""

    def register(cases: Cases) -> Cases:
        _CHECKS.append(
            _Check(check_id, description, threshold, comparison, informational, cases)
        )
        return cases

    return register


def _fold(check: _Check, kmax: int, nmax: int, bits: int) -> CheckResult | None:
    """Run one row and keep its worst case.

    "<=" rows keep the largest statistic, starting from 0.0, and ">=" rows
    the smallest, starting from +inf; the first case that strictly improves
    on the worst so far is named, so ties keep the earlier case and an
    all-zero "<=" row names none.  A NaN statistic is worse than any number:
    the first one is kept and fails the row.  A row without cases passes
    with statistic 0.0, except that an informational row without cases is
    left out of the report.
    """
    # Outside the working precision: 2^(-bits/2) for odd bits depends on it.
    threshold = check.threshold
    if callable(threshold):
        threshold = float(threshold(bits))
    maximum = check.comparison == "<="
    worse = operator.gt if maximum else operator.lt
    worst, worst_case, count = (0.0 if maximum else math.inf), "", 0
    with mp.workprec(bits + _GUARD_BITS):
        for value, case in check.cases(kmax, nmax, bits):
            count += 1
            if worse(value, worst) or (math.isnan(value) and not math.isnan(worst)):
                worst, worst_case = value, case
        if count == 0 and check.informational:
            return None
        description = check.description
        if callable(description):
            description = description(bits)
    if count == 0:
        worst, passed = 0.0, True
    else:
        passed = worst <= threshold if maximum else worst >= threshold
    return CheckResult(
        check.check_id,
        description,
        count,
        worst,
        threshold,
        check.comparison,
        passed or check.informational,
        worst_case,
        check.informational,
    )


def _specs(kmax: int, nmax: int) -> Iterator[GraphSpec]:
    for k in range(1, kmax + 1):
        for n in range(2 * k + 1, nmax + 1):
            yield GraphSpec(n, k)


def _rel(a, b) -> float:
    """The relative deviation every numeric row reports."""
    return float(abs(a - b) / max(1, abs(a), abs(b)))


def _adjacent(spec: GraphSpec, u: int, v: int) -> int:
    """1 if u and v are joined (cyclic distance 1..k), else 0."""
    distance = (u - v) % spec.n
    return int(1 <= min(distance, spec.n - distance) <= spec.k)


@_check("laplacian-structure", "row sums 0, symmetric, diagonal 2k, trace 2nk")
def _laplacian_structure(kmax, nmax, bits):
    for spec in _specs(kmax, nmax):
        _, rows = build_laplacian(spec)
        n, b = len(rows), len(rows[0]) // 2
        # Entry (i, i+d) sits at rows[i][b+d]; off the matrix it must be 0.
        symmetric = all(
            row[b + d] == (rows[i + d][b - d] if 0 <= i + d < n else 0)
            for i, row in enumerate(rows)
            for d in range(-b, b + 1)
        )
        deviation = max(
            max(abs(sum(row)) for row in rows),
            0 if symmetric else 1,
            max(abs(row[b] - spec.degree) for row in rows),
            abs(sum(row[b] for row in rows) - 2 * spec.num_edges),
        )
        yield float(deviation), f"(n={spec.n}, k={spec.k})"


@_check(
    "contraction-structure", "contracted Laplacians keep zero row sums and zero total"
)
def _contraction_structure(kmax, nmax, bits):
    for spec in _specs(kmax, nmax):
        for ell in range(1, spec.n):
            # The contracted Laplacian is the Laplacian with 0 and ell
            # deleted, bordered by the merged vertex: each other vertex has
            # its edges into {0, ell} there, from cyclic distances.
            order, rows = build_laplacian(spec, (0, ell))
            border = [_adjacent(spec, v, 0) + _adjacent(spec, v, ell) for v in order]
            merged_diagonal = 2 * spec.degree - 2 * _adjacent(spec, 0, ell)
            row_sums = [merged_diagonal - sum(border)]
            row_sums += [sum(row) - edges for row, edges in zip(rows, border)]
            deviation = max(max(map(abs, row_sums)), abs(sum(row_sums)))
            yield float(deviation), f"(n={spec.n}, k={spec.k}, ell={ell})"


@_check(
    "spectrum-positivity",
    "phi_k(2 cos(2 pi j/n)) > 0 for every nonzero mode",
    comparison=">=",
)
def _spectrum_positivity(kmax, nmax, bits):
    for spec in _specs(kmax, nmax):
        phi = build_phi(spec.k)
        cosines = cosine_table(spec.n, bits)
        for j in range(1, spec.n):
            value = eval_poly(phi, 2 * cosines[j])
            yield float(value), f"(n={spec.n}, k={spec.k}, j={j})"


@_check(
    "partial-fraction-residual",
    "decomposition of 2k/phi_k holds at 16 random points per k",
    residual_tolerance,
)
def _decomposition_residual(kmax, nmax, bits):
    rng = random.Random(0xC0FFEE)
    for k in range(1, kmax + 1):
        sf = cached_factorization(k, bits)
        poles = [mp.mpc(2)] + [f.root for f in sf.factors]
        points = []
        while len(points) < 16:
            candidate = mp.mpc(rng.uniform(-6, 6), rng.uniform(-3, 3))
            if all(abs(candidate - pole) > 0.25 for pole in poles):
                points.append(candidate)
        for point in points:
            yield (
                float(check_decomposition(sf, point)),
                f"(k={k}, x={mp.nstr(point, 5)})",
            )


@lru_cache(maxsize=None)
def _ratio_table(factor, n: int, form: str, bits: int) -> tuple:
    """correction_ratios(factor, n, form, bits), built once per run for every
    check that reads it; run_verification clears it after _LAST_RATIO_READER,
    so the later checks do not allocate on top of it."""
    return correction_ratios(factor, n, form, bits)


_LAST_RATIO_READER = "resolvent-periodization"


@_check(
    "ratio-form-agreement",
    "exponential and sequence correction ratios agree",
    residual_tolerance,
)
def _ratio_form_agreement(kmax, nmax, bits):
    for k in range(2, kmax + 1):
        sf = cached_factorization(k, bits)
        for n in range(2 * k + 1, min(nmax, 48) + 1):
            for factor in sf.factors:
                exp_forms = _ratio_table(factor, n, "exponential", bits)
                seq_forms = _ratio_table(factor, n, "sequence", bits)
                for ell, (exp_form, seq_form) in enumerate(zip(exp_forms, seq_forms)):
                    yield _rel(exp_form, seq_form), f"(n={n}, k={k}, ell={ell})"


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@_check(
    "fibonacci-anchor",
    "k=2 sequence ratio reproduces -F_ell F_(n-ell) / F_n",
    residual_tolerance,
)
def _fibonacci_anchor(kmax, nmax, bits):
    if kmax < 2:
        return
    factor = cached_factorization(2, bits).factors[0]
    for n in range(5, min(nmax, 48) + 1):
        f_n = _fibonacci(n)
        ratios = _ratio_table(factor, n, "sequence", bits)
        for ell, ratio in enumerate(ratios):
            expected = mp.mpf(-_fibonacci(ell) * _fibonacci(n - ell)) / f_n
            yield _rel(ratio, expected), f"(n={n}, ell={ell})"


@_check("hitting-symmetry", "h(0, ell) = h(0, n - ell) as exact rationals")
def _hitting_symmetry(kmax, nmax, bits):
    for spec in _specs(kmax, nmax):
        exact_all = hit_exact_all(spec)
        for ell in range(1, spec.n):
            deviation = 0.0 if exact_all[ell] == exact_all[spec.n - ell] else 1.0
            yield deviation, f"(n={spec.n}, k={spec.k}, ell={ell})"


@_check("k1-quadratic", "plain cycle: h(0, ell) = ell * (n - ell) exactly")
def _k1_quadratic(kmax, nmax, bits):
    for n in range(3, nmax + 1):
        exact_all = hit_exact_all(GraphSpec(n, 1))
        for ell in range(n):
            deviation = 0.0 if exact_all[ell] == Fraction(ell * (n - ell)) else 1.0
            yield deviation, f"(n={n}, ell={ell})"


@_check(
    "complete-graph-degeneracy",
    "n = 2k+1: every hitting time is 2k and tau = n^(n-2)",
)
def _complete_graph(kmax, nmax, bits):
    for k in range(1, kmax + 1):  # run_verification ensures 2k+1 <= nmax
        n = 2 * k + 1
        spec = GraphSpec(n, k)
        exact_all = hit_exact_all(spec)
        wrong = any(exact_all[ell] != Fraction(2 * k) for ell in range(1, n))
        wrong = wrong or tau_det(spec) != n ** (n - 2)
        yield (1.0 if wrong else 0.0), f"(n={n}, k={k})"


@_check(
    "resolvent-periodization",
    "direct resolvent sum equals n * correction ratio",
    residual_tolerance,
)
def _resolvent_periodization(kmax, nmax, bits):
    # Term j equals term n - j (the cosine table mirrors exactly), so the sum
    # over 1 <= j < n is folded as hit_spectral folds it.
    for k in range(2, min(kmax, 3) + 1):
        sf = cached_factorization(k, bits)
        for n in range(2 * k + 1, min(nmax, 32) + 1):
            cosines = cosine_table(n, bits)
            for factor in sf.factors:
                gamma = mp.mpc(factor.root)
                ratios = _ratio_table(factor, n, "exponential", bits)
                for ell in range(n):
                    terms = [
                        (1 - cosines[(j * ell) % n]) / (gamma - 2 * cosines[j])
                        for j in range(1, n // 2 + 1)
                    ]
                    middle = terms.pop() if n % 2 == 0 else 0
                    direct = 2 * mp.fsum(terms) + middle
                    yield _rel(direct, n * ratios[ell]), f"(n={n}, k={k}, ell={ell})"


@lru_cache(maxsize=1)
def _oracle_deviations(kmax, nmax, bits) -> tuple[tuple, tuple]:
    """(trees, hits), both relative deviations from the exact oracles.

    trees holds (tau, case) per graph: the larger deviation of the eigenvalue
    and root products from the determinant count.  hits holds (spectral,
    closed, case) per (graph, ell): the deviations of the spectral sum and
    the closed form from the exact solve.  The tree row and both hitting
    rows read this one pass over the graphs, so each graph's eigenvalue
    table is built once and read by tau_eigen and hit_spectral alike, and
    its exact solve is looked up once.
    """
    trees, hits = [], []
    for spec in _specs(kmax, nmax):
        exact_all = hit_exact_all(spec)
        closed_all = hit_closed_all(spec, bits)
        for ell in range(spec.n):
            exact = mp.mpf(exact_all[ell].numerator) / exact_all[ell].denominator
            hits.append(
                (
                    _rel(hit_spectral(spec, ell, bits), exact),
                    _rel(closed_all[ell], exact),
                    f"(n={spec.n}, k={spec.k}, ell={ell})",
                )
            )
        tau = mp.mpf(tau_det(spec))
        deviation = max(
            _rel(tau_eigen(spec, bits), tau), _rel(tau_product(spec, bits), tau)
        )
        trees.append((deviation, f"(n={spec.n}, k={spec.k})"))
    return tuple(trees), tuple(hits)


@_check(
    "tree-triple-agreement",
    "determinant, eigenvalue product, and root product all give tau",
    residual_tolerance,
)
def _tree_triple(kmax, nmax, bits):
    trees, _ = _oracle_deviations(kmax, nmax, bits)
    yield from trees


@_check(
    "forest-contraction-duality",
    "forest count tau * h(0, ell) / (n*k) is an integer and equals the "
    "contracted tree count (compared at k<=4, n<=24)",
)
def _forest_duality(kmax, nmax, bits):
    for spec in _specs(kmax, nmax):
        tau = tau_det(spec)
        exact_all = hit_exact_all(spec)
        compared = spec.k <= 4 and spec.n <= 24
        for ell in range(1, spec.n):
            if (tau * exact_all[ell] / spec.num_edges).denominator != 1:
                deviation = 1
            elif compared:
                deviation = abs(forests(spec, ell) - tau_contracted(spec, ell))
            else:
                deviation = 0
            yield float(deviation), f"(n={spec.n}, k={spec.k}, ell={ell})"


@_check(
    "resistance-metric",
    "R symmetric and subadditive along the cycle (capped at n<=24)",
)
def _resistance_metric(kmax, nmax, bits):
    for spec in _specs(kmax, min(nmax, 24)):
        n, m = spec.n, spec.num_edges
        res = [value / m for value in hit_exact_all(spec)]
        wrong = any(res[ell] != res[n - ell] for ell in range(1, n)) or any(
            res[(a + b) % n] > res[a] + res[b]
            for a in range(1, n)
            for b in range(1, n)
        )
        yield (1.0 if wrong else 0.0), f"(n={n}, k={spec.k})"


@_check(
    "hitting-oracle-spectral",
    "spectral sum matches the exact solve",
    residual_tolerance,
)
def _oracle_spectral(kmax, nmax, bits):
    _, hits = _oracle_deviations(kmax, nmax, bits)
    for spectral, _, case in hits:
        yield spectral, case


@_check(
    "hitting-oracle-closed", "closed form matches the exact solve", residual_tolerance
)
def _oracle_closed(kmax, nmax, bits):
    _, hits = _oracle_deviations(kmax, nmax, bits)
    for _, closed, case in hits:
        yield closed, case


# The erratum fixtures compare the published closed-form variants with the
# exact h(0, 1) = 5 on (n=6, k=2); they report nothing below that graph.
_ERRATUM_CASE = "(n=6, k=2, ell=1)"
_DOUBLED_INDEX_VALUE = Fraction(2, 5) * 5 + Fraction(4, 5) * 6 * Fraction(
    _fibonacci(2) * _fibonacci(10), _fibonacci(12)
)


@lru_cache(maxsize=1)
def _full_index_value(bits: int):
    """Cached: the row's statistic and its description both read it."""
    return hit_closed_literal(GraphSpec(6, 2), 1, bits)


@_check(
    "erratum-full-index-ratio",
    lambda bits: "full-index sequence ratio deviates from the oracle "
    f"(value {mp.nstr(_full_index_value(bits), 6)} vs exact 5 at n=6, k=2, ell=1)",
    1.0,
    ">=",
    informational=True,
)
def _erratum_full_index(kmax, nmax, bits):
    if kmax >= 2 and nmax >= 6:
        yield float(abs(_full_index_value(bits) - 5)), _ERRATUM_CASE


@_check(
    "erratum-doubled-index-form",
    "doubled-index Fibonacci form deviates from the oracle "
    f"(value {float(_DOUBLED_INDEX_VALUE):.4f} vs exact 5 at n=6, k=2, ell=1)",
    1.0,
    ">=",
    informational=True,
)
def _erratum_doubled_index(kmax, nmax, bits):
    if kmax >= 2 and nmax >= 6:
        yield float(abs(_DOUBLED_INDEX_VALUE - 5)), _ERRATUM_CASE


def run_verification(
    kmax: int, nmax: int, precision_bits: int = 256
) -> list[CheckResult]:
    """Run every check bounded by kmax and nmax; erratum fixtures included."""
    if not 1 <= kmax <= 8:
        raise ParameterError(f"kmax must be in 1..8, got {kmax}")
    if nmax < 2 * kmax + 1:
        raise ParameterError(f"nmax must be >= 2*kmax+1, got {nmax}")
    results = []
    try:
        for check in _CHECKS:
            results.append(_fold(check, kmax, nmax, precision_bits))
            if check.check_id == _LAST_RATIO_READER:
                _ratio_table.cache_clear()
    finally:
        # Run-scoped: a run that raised must not leave its values to the next.
        _ratio_table.cache_clear()
        _oracle_deviations.cache_clear()
        _full_index_value.cache_clear()
    return [result for result in results if result is not None]
