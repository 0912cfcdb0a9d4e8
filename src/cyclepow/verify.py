"""Cross-method verification harness.

Runs every identity and cross-check the package promises, over all valid
(n, k) with k <= kmax and n <= nmax, and reports the worst observed statistic
per check.  Exact checks report the largest integer deviation (which must be
zero); numeric checks report the largest relative deviation, _rel(a, b) =
|a - b| / max(1, |a|, |b|), against residual_tolerance(bits) = 2^(-bits/2),
the relative bound that spectral.certified_bound prints with every analytic
value.

A row must be able to fail on some input, and no row repeats another.  What
holds by construction is checked where it is built and pinned by tests.
build_psi raises unless (2 - x) * psi_k = phi_k, and partial_fractions
unless psi_k(2) = k(k+1)(2k+1)/6, each bound on |psi_k(gamma)|, read
through the four-term inner equation at rho, is within 2^(-bits/2) and the
roots are apart by more than 2^(-bits/4), and when rho lands within
2^(-bits/4) of the unit circle.  gamma is rho + 1/rho by
construction, a real root stays exactly real, and mpmath's complex
operations and the fixed-point exponential ratios round symmetrically, so a
pair's inner roots, coefficients and correction ratios are exact conjugates: a
factorization keeps one factor per real root and one per pair, its upper
root, and partial-fraction-residual keeps its points clear of both poles.
The ratio's symmetry ell <-> N - ell holds bit for bit; the recurrence is
graded by ratio-form-agreement, fibonacci-anchor, the closed-form oracle and
a Binet test, and one doubling ladder builds both the tables these rows read
and the single ell of `hit --form seq`.  The plain-cycle sums are the k = 1
cases of the oracle rows, and a defect in a fixed-point cosine entry, its
mirror included, fails the spectral oracle row.
Three more facts are pinned by tests alone, since no input can fail them:

- The Laplacian's structure (test_laplacian_invariants and
  test_band_rows_equal_the_dense_construction): build_laplacian writes 2k on
  the diagonal and -1 for each of the 2k distinct neighbours, symmetrically,
  so row sums, symmetry, diagonal and trace hold by construction;
  fractionfree._factor raises on an asymmetric matrix, and a wrong
  neighbour rule would move every exact h, which the oracle rows grade.
- The contracted Laplacians' structure (the same band test with (0, ell)
  removed, and test_contracted_tree_counts_against_brute_force): a kept row
  sums to its number of deleted neighbours by construction, and
  arboreal_counts raises unless the (0, ell) determinant is the forest count.
- The spectrum's positivity (test_spectrum_arc_positivity and
  test_eigenvalues_positive_away_from_constant_mode): phi_k(2 cos theta) =
  2 sum_r (1 - cos r theta) > 0 at every nonzero mode, and stays positive at
  the 96-bit minimum working precision for every n below about 2^44;
  fixed_eigenvalues raises ConsistencyError on lambda <= 0, so hit_spectral
  and tau_eigen both do, and a defect in build_phi moves psi_k, which
  hitting-oracle-closed grades.

The checks form one ordered table of case generators `(spec, bits) ->
(statistic, case)`, each registered with `@_check(id, description,
threshold, comparison)`.  run_verification walks the graphs once, in
`working_precision(bits)`, and hands each graph to every row in definition
order; a row yields nothing outside its own domain (k = 1, n = 2k+1, n <=
24, 32 or 48, k = 2, or the erratum graph (6, 2)) and keeps one running
worst statistic that names its case.  So every row reads a graph's exact
solve, eigenvalue table and reduced-Laplacian factor while that graph is the
latest, and none reads them again later.  Two rows are informational
erratum fixtures: the full-index sequence ratio and the doubled-index
Fibonacci variant of the k=2 closed form reproduce a published-but-wrong
value, and the report shows how far they sit from the exact oracle without
ever failing the run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from mpmath import mp

from .arboreal import contracted_counts, tau_det, tau_eigen, tau_product
from .errors import ParameterError
from .graphs import GraphSpec
from .hitting import (
    cosine_table,
    fraction_bits,
    hit_closed_all,
    hit_closed_literal,
    hit_exact_all,
    hit_spectral,
)
from .recurrences import correction_ratios
from .spectral import (
    DEFAULT_PRECISION_BITS,
    cached_factorization,
    check_decomposition,
    residual_tolerance,
    working_precision,
)

__all__ = ["CheckResult", "run_verification"]


class CheckResult:
    """Outcome of one verification check.

    `statistic` is the worst value observed across all cases and must satisfy
    `statistic <comparison> threshold` for the check to pass.  Informational
    checks (the erratum fixtures) never fail the run.
    """

    __slots__ = (
        "check_id", "description", "cases", "statistic", "threshold",
        "comparison", "passed", "worst_case", "informational",
    )

    def __init__(
        self,
        check_id: str,
        description: str,
        cases: int,
        statistic: float,
        threshold: float,
        comparison: str,
        passed: bool,
        worst_case: str = "",
        informational: bool = False,
    ) -> None:
        self.check_id = check_id
        self.description = description
        self.cases = cases
        self.statistic = statistic
        self.threshold = threshold
        self.comparison = comparison
        self.passed = passed
        self.worst_case = worst_case
        self.informational = informational


Cases = Callable[[GraphSpec, int], Iterator[tuple[float, str]]]


class _Check(NamedTuple):
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


def _specs(kmax: int, nmax: int) -> Iterator[GraphSpec]:
    for k in range(1, kmax + 1):
        for n in range(2 * k + 1, nmax + 1):
            yield GraphSpec(n, k)


def _rel(a, b) -> float:
    """The relative deviation every numeric row reports."""
    return float(abs(a - b) / max(1, abs(a), abs(b)))


@_check(
    "partial-fraction-residual",
    "decomposition of 2k/phi_k holds at 16 random points per k",
    residual_tolerance,
)
def _decomposition_residual(spec, bits):
    # One Random(0xC0FFEE) stream draws the points of k = 1, 2, ... in turn,
    # so graph (2k+1, k) replays the draws of every k' < k before its own.
    if spec.n != 2 * spec.k + 1:
        return
    rng = random.Random(0xC0FFEE)
    for k in range(1, spec.k + 1):
        sf = cached_factorization(k, bits)
        roots = [f.root for f in sf.factors]
        poles = [mp.mpc(2)] + roots + [mp.conj(root) for root in roots]
        points = []
        while len(points) < 16:
            candidate = mp.mpc(rng.uniform(-6, 6), rng.uniform(-3, 3))
            if all(abs(candidate - pole) > 0.25 for pole in poles):
                points.append(candidate)
    for point in points:
        yield (
            float(check_decomposition(sf, point)),
            f"(k={spec.k}, x={mp.nstr(point, 5)})",
        )


@_check(
    "ratio-form-agreement",
    "exponential and sequence correction ratios agree",
    residual_tolerance,
)
def _ratio_form_agreement(spec, bits):
    if spec.k < 2 or spec.n > 48:
        return
    for factor in cached_factorization(spec.k, bits).factors:
        exp_forms = correction_ratios(factor, spec.n, "exponential", bits)
        seq_forms = correction_ratios(factor, spec.n, "sequence", bits)
        for ell, (exp_form, seq_form) in enumerate(zip(exp_forms, seq_forms)):
            yield _rel(exp_form, seq_form), f"(n={spec.n}, k={spec.k}, ell={ell})"


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
def _fibonacci_anchor(spec, bits):
    if spec.k != 2 or spec.n > 48:
        return
    n, f_n = spec.n, _fibonacci(spec.n)
    factor = cached_factorization(2, bits).factors[0]
    for ell, ratio in enumerate(correction_ratios(factor, n, "sequence", bits)):
        expected = mp.mpf(-_fibonacci(ell) * _fibonacci(n - ell)) / f_n
        yield _rel(ratio, expected), f"(n={n}, ell={ell})"


@_check("hitting-symmetry", "h(0, ell) = h(0, n - ell) as exact rationals")
def _hitting_symmetry(spec, bits):
    exact_all = hit_exact_all(spec)
    for ell in range(1, spec.n):
        deviation = 0.0 if exact_all[ell] == exact_all[spec.n - ell] else 1.0
        yield deviation, f"(n={spec.n}, k={spec.k}, ell={ell})"


@_check("k1-quadratic", "plain cycle: h(0, ell) = ell * (n - ell) exactly")
def _k1_quadratic(spec, bits):
    if spec.k != 1:
        return
    n, exact_all = spec.n, hit_exact_all(spec)
    for ell in range(n):
        deviation = 0.0 if exact_all[ell] == Fraction(ell * (n - ell)) else 1.0
        yield deviation, f"(n={n}, ell={ell})"


@_check(
    "complete-graph-degeneracy",
    "n = 2k+1: every hitting time is 2k and tau = n^(n-2)",
)
def _complete_graph(spec, bits):
    n, k = spec.n, spec.k
    if n != 2 * k + 1:  # run_verification ensures 2k+1 <= nmax
        return
    exact_all = hit_exact_all(spec)
    wrong = any(exact_all[ell] != Fraction(2 * k) for ell in range(1, n))
    wrong = wrong or tau_det(spec) != n ** (n - 2)
    yield (1.0 if wrong else 0.0), f"(n={n}, k={k})"


@_check(
    "resolvent-periodization",
    "direct resolvent sum equals n * correction ratio",
    residual_tolerance,
)
def _resolvent_periodization(spec, bits):
    # Term j equals term n - j (the cosine table mirrors exactly), so the sum
    # over 1 <= j < n is folded as hit_spectral folds it.  The sum stays in
    # mpmath, an arithmetic apart from the fixed-point ratios it grades: each
    # fixed-point cosine is rounded once to the working precision.
    n, k = spec.n, spec.k
    if not 2 <= k <= 3 or n > 32:
        return
    scale = fraction_bits(n, bits)
    cosines = [mp.mpf((c, -scale)) for c in cosine_table(n, bits)]
    numerators = [1 - cosine for cosine in cosines]
    for factor in cached_factorization(k, bits).factors:
        gamma = mp.mpc(factor.root)
        reciprocals = [1 / (gamma - 2 * cosines[j]) for j in range(1, n // 2 + 1)]
        ratios = correction_ratios(factor, n, "exponential", bits)
        for ell in range(n):
            terms = [
                numerators[(j * ell) % n] * reciprocal
                for j, reciprocal in enumerate(reciprocals, 1)
            ]
            middle = terms.pop() if n % 2 == 0 else 0
            direct = 2 * mp.fsum(terms) + middle
            yield _rel(direct, n * ratios[ell]), f"(n={n}, k={k}, ell={ell})"


@_check(
    "tree-triple-agreement",
    "determinant, eigenvalue product, and root product all give tau",
    residual_tolerance,
)
def _tree_triple(spec, bits):
    # tau_eigen multiplies the fixed-point eigenvalue table that the spectral
    # oracle row reads later for this graph.
    tau = mp.mpf(tau_det(spec))
    deviation = max(
        _rel(tau_eigen(spec, bits), tau), _rel(tau_product(spec, bits), tau)
    )
    yield deviation, f"(n={spec.n}, k={spec.k})"


@_check(
    "forest-contraction-duality",
    "forest count tau * h(0, ell) / (n*k) is an integer and equals the "
    "contracted tree count",
)
def _forest_duality(spec, bits):
    tau = tau_det(spec)
    exact_all = hit_exact_all(spec)
    contracted = contracted_counts(spec)
    for ell in range(1, spec.n):
        forest = tau * exact_all[ell] / spec.num_edges
        if forest.denominator != 1:
            deviation = 1
        else:
            deviation = abs(forest.numerator - contracted[ell])
        yield float(deviation), f"(n={spec.n}, k={spec.k}, ell={ell})"


@_check(
    "resistance-metric",
    "R subadditive along the cycle (capped at n<=24)",
)
def _resistance_metric(spec, bits):
    # R = h / (n*k), so its symmetry is the hitting-symmetry row.
    if spec.n > 24:
        return
    # h * lcm(denominators) orders exactly as R = h / (n*k) does.
    n, hits = spec.n, hit_exact_all(spec)
    scale = math.lcm(*(value.denominator for value in hits))
    scaled = [value.numerator * (scale // value.denominator) for value in hits]
    wrong = any(
        scaled[(a + b) % n] > scaled[a] + scaled[b]
        for a in range(1, n)
        for b in range(1, n)
    )
    yield (1.0 if wrong else 0.0), f"(n={n}, k={spec.k})"


def _exact_hits(spec: GraphSpec) -> list:
    """Every exact h(0, ell), rounded to the working precision."""
    return [mp.mpf(h.numerator) / h.denominator for h in hit_exact_all(spec)]


@_check(
    "hitting-oracle-spectral",
    "spectral sum matches the exact solve",
    residual_tolerance,
)
def _oracle_spectral(spec, bits):
    for ell, exact in enumerate(_exact_hits(spec)):
        yield (
            _rel(hit_spectral(spec, ell, bits), exact),
            f"(n={spec.n}, k={spec.k}, ell={ell})",
        )


@_check(
    "hitting-oracle-closed", "closed form matches the exact solve", residual_tolerance
)
def _oracle_closed(spec, bits):
    closed_all = hit_closed_all(spec, bits)
    for ell, exact in enumerate(_exact_hits(spec)):
        yield _rel(closed_all[ell], exact), f"(n={spec.n}, k={spec.k}, ell={ell})"


# The erratum fixtures compare the published closed-form variants with the
# exact h(0, 1) = 5 on (n=6, k=2); they report nothing on any other graph.
_ERRATUM_CASE = "(n=6, k=2, ell=1)"
_DOUBLED_INDEX_VALUE = Fraction(2, 5) * 5 + Fraction(4, 5) * 6 * Fraction(
    _fibonacci(2) * _fibonacci(10), _fibonacci(12)
)


def _full_index_value(bits: int):
    """The literal full-index closed form at the erratum case; the row's
    statistic and its description each compute it (about 0.2 ms)."""
    return hit_closed_literal(GraphSpec(6, 2), 1, bits)


@_check(
    "erratum-full-index-ratio",
    lambda bits: "full-index sequence ratio deviates from the oracle "
    f"(value {mp.nstr(_full_index_value(bits), 6)} vs exact 5 at n=6, k=2, ell=1)",
    1.0,
    ">=",
    informational=True,
)
def _erratum_full_index(spec, bits):
    if (spec.n, spec.k) == (6, 2):
        yield float(abs(_full_index_value(bits) - 5)), _ERRATUM_CASE


@_check(
    "erratum-doubled-index-form",
    "doubled-index Fibonacci form deviates from the oracle "
    f"(value {float(_DOUBLED_INDEX_VALUE):.4f} vs exact 5 at n=6, k=2, ell=1)",
    1.0,
    ">=",
    informational=True,
)
def _erratum_doubled_index(spec, bits):
    if (spec.n, spec.k) == (6, 2):
        yield float(abs(_DOUBLED_INDEX_VALUE - 5)), _ERRATUM_CASE


def run_verification(
    kmax: int, nmax: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> list[CheckResult]:
    """Run every check bounded by kmax and nmax; erratum fixtures included.

    Each row keeps its worst case as the walk over the graphs feeds it.
    "<=" rows keep the largest statistic, starting from 0.0, and ">=" rows
    the smallest, starting from +inf; the first case that strictly improves
    on the worst so far is named, so ties keep the earlier case and an
    all-zero "<=" row names none.  A NaN statistic is worse than any number:
    the first one is kept and fails the row.  A row without cases passes
    with statistic 0.0, except that an informational row without cases is
    left out of the report.
    """
    if not 1 <= kmax <= 8:
        raise ParameterError(f"kmax must be in 1..8, got {kmax}")
    if nmax < 2 * kmax + 1:
        raise ParameterError(f"nmax must be >= 2*kmax+1, got {nmax}")
    bits = precision_bits
    # One [cases, worst, case] per row, folded as the walk feeds it.
    folds = [[0, 0.0 if c.comparison == "<=" else math.inf, ""] for c in _CHECKS]
    with working_precision(bits):
        for spec in _specs(kmax, nmax):
            for check, fold in zip(_CHECKS, folds):
                maximum = check.comparison == "<="
                for value, case in check.cases(spec, bits):
                    fold[0] += 1
                    worst = fold[1]
                    if (value > worst if maximum else value < worst) or (
                        math.isnan(value) and not math.isnan(worst)
                    ):
                        fold[1:] = value, case
        reported = []
        for check, (cases, worst, case) in zip(_CHECKS, folds):
            if cases == 0 and check.informational:
                continue
            threshold, description = check.threshold, check.description
            if callable(threshold):
                threshold = float(threshold(bits))
            if callable(description):
                description = description(bits)
            passed = not cases or check.informational or (
                worst <= threshold if check.comparison == "<=" else worst >= threshold
            )
            reported.append(
                CheckResult(
                    check.check_id, description, cases, worst if cases else 0.0,
                    threshold, check.comparison, passed, case, check.informational,
                )
            )
    return reported
