"""Cross-method verification harness.

Runs every identity and cross-check the package promises, over all valid
(n, k) with k <= kmax and n <= nmax, and reports the worst observed statistic
per check.  Exact checks report the largest integer deviation (which must be
zero); numeric checks report the largest relative deviation against the
stated tolerance; margin checks report the smallest observed margin, which
must stay above its floor.

Two checks are informational erratum fixtures: the full-index sequence ratio
and the doubled-index Fibonacci variant of the k=2 closed form reproduce a
published-but-wrong value, and the report shows how far they sit from the
exact oracle without ever failing the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
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
from .graphs import GraphSpec, build_laplacian, contract_vertices
from .hitting import (
    cosine_table,
    hit_closed,
    hit_closed_literal,
    hit_exact_all,
    hit_spectral,
)
from .polynomials import IntPolynomial, build_phi, build_psi, derivative, eval_poly
from .recurrences import (
    correction_ratios,
    full_index_spec,
    half_index_spec,
    term_by_binet,
    term_by_recurrence,
)
from .spectral import (
    _GUARD_BITS,
    cached_factorization,
    check_decomposition,
    conjugate_pairs,
    residual_tolerance,
)

__all__ = ["CheckResult", "run_verification"]

ORACLE_RTOL = 1e-10
EIGENPRODUCT_RTOL = 1e-12


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


class _Worst:
    """Track the worst statistic and the case that produced it."""

    def __init__(self, mode: str = "max") -> None:
        self.mode = mode
        self.value = 0.0 if mode == "max" else float("inf")
        self.case = ""
        self.cases = 0

    def update(self, value: float, case: str) -> None:
        self.cases += 1
        if (self.mode == "max" and value > self.value) or (
            self.mode == "min" and value < self.value
        ):
            self.value = value
            self.case = case

    def result(
        self,
        check_id: str,
        description: str,
        threshold: float,
        comparison: str,
        informational: bool = False,
    ) -> CheckResult:
        if self.cases == 0:
            # Nothing in range; vacuously true.
            return CheckResult(
                check_id, description, 0, 0.0, threshold, comparison, True, "", informational
            )
        if comparison == "<=":
            passed = self.value <= threshold
        else:
            passed = self.value >= threshold
        return CheckResult(
            check_id,
            description,
            self.cases,
            self.value,
            threshold,
            comparison,
            passed or informational,
            self.case,
            informational,
        )


def _specs(kmax: int, nmax: int) -> Iterator[GraphSpec]:
    for k in range(1, kmax + 1):
        for n in range(2 * k + 1, nmax + 1):
            yield GraphSpec(n, k)


def _rel(a, b) -> float:
    return float(abs(a - b) / max(1, abs(a), abs(b)))


def _check_laplacian_structure(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for spec in _specs(kmax, nmax):
        lap = build_laplacian(spec)
        deviation = max(abs(s) for s in lap.row_sums())
        deviation = max(deviation, 0 if lap.is_symmetric() else 1)
        deviation = max(
            deviation,
            max(abs(lap[i, i] - spec.degree) for i in range(spec.n)),
            abs(lap.trace() - 2 * spec.num_edges),
        )
        worst.update(float(deviation), f"(n={spec.n}, k={spec.k})")
    return worst.result(
        "laplacian-structure",
        "row sums 0, symmetric, diagonal 2k, trace 2nk",
        0.0,
        "<=",
    )


def _check_contraction_structure(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for spec in _specs(kmax, nmax):
        lap = build_laplacian(spec)
        for ell in range(1, spec.n):
            contracted = contract_vertices(lap, 0, ell)
            deviation = max(abs(s) for s in contracted.row_sums())
            deviation = max(deviation, abs(contracted.total()))
            worst.update(float(deviation), f"(n={spec.n}, k={spec.k}, ell={ell})")
    return worst.result(
        "contraction-structure",
        "contracted Laplacians keep zero row sums and zero total",
        0.0,
        "<=",
    )


def _check_symbol_factorization(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for k in range(1, kmax + 1):
        recombined = IntPolynomial((2, -1)) * build_psi(k)
        deviation = 0 if recombined == build_phi(k) else 1
        worst.update(float(deviation), f"(k={k})")
    return worst.result(
        "symbol-factorization",
        "phi_k equals (2 - x) * psi_k coefficientwise",
        0.0,
        "<=",
    )


def _check_psi_at_two(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for k in range(1, kmax + 1):
        deviation = abs(6 * eval_poly(build_psi(k), 2) - k * (k + 1) * (2 * k + 1))
        worst.update(float(deviation), f"(k={k})")
    return worst.result(
        "psi-at-two",
        "psi_k(2) = k(k+1)(2k+1)/6 exactly",
        0.0,
        "<=",
    )


def _check_phi_slope_at_two(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for k in range(1, kmax + 1):
        slope = eval_poly(derivative(build_phi(k)), 2)
        deviation = abs(6 * slope + k * (k + 1) * (2 * k + 1))
        worst.update(float(deviation), f"(k={k})")
    return worst.result(
        "phi-slope-at-two",
        "phi_k'(2) = -k(k+1)(2k+1)/6 exactly",
        0.0,
        "<=",
    )


def _check_spectrum_positivity(kmax, nmax, bits) -> CheckResult:
    worst = _Worst(mode="min")
    with mp.workprec(bits + _GUARD_BITS):
        for spec in _specs(kmax, nmax):
            phi = build_phi(spec.k)
            cosines = cosine_table(spec.n, bits)
            for j in range(1, spec.n):
                value = eval_poly(phi, 2 * cosines[j])
                worst.update(float(value), f"(n={spec.n}, k={spec.k}, j={j})")
    return worst.result(
        "spectrum-positivity",
        "phi_k(2 cos(2 pi j/n)) > 0 for every nonzero mode",
        0.0,
        ">=",
    )


def _check_root_count(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for k in range(1, kmax + 1):
        sf = cached_factorization(k, bits)
        deviation = abs(len(sf.factors) - (k - 1))
        deviation += (
            0 if sf.pole_coefficient == Fraction(12, (k + 1) * (2 * k + 1)) else 1
        )
        worst.update(float(deviation), f"(k={k})")
    return worst.result(
        "partial-fraction-shape",
        "k-1 factors and exact pole coefficient 12/((k+1)(2k+1))",
        0.0,
        "<=",
    )


def _segment_distance(z) -> float:
    """Distance from z to the real interval [-2, 2]."""
    re, im = mp.re(z), mp.im(z)
    if -2 <= re <= 2:
        return float(abs(im))
    return float(min(abs(z - 2), abs(z + 2)))


def _check_root_spectrum_separation(kmax, nmax, bits) -> CheckResult:
    worst = _Worst(mode="min")
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            for factor in cached_factorization(k, bits).factors:
                worst.update(_segment_distance(factor.root), f"(k={k})")
    return worst.result(
        "root-spectrum-separation",
        "roots of psi_k stay clear of the spectrum arc [-2, 2]",
        float(mp.mpf(2) ** -32),
        ">=",
    )


def _check_conjugate_closure(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            factors = cached_factorization(k, bits).factors
            for factor in factors:
                deviation = min(
                    max(
                        float(abs(mp.conj(factor.root) - other.root)),
                        float(abs(mp.conj(factor.inner_root) - other.inner_root)),
                        float(abs(mp.conj(factor.coefficient) - other.coefficient)),
                    )
                    for other in factors
                )
                worst.update(deviation, f"(k={k})")
    return worst.result(
        "conjugate-closure",
        "roots, inner roots, and coefficients closed under conjugation",
        float(residual_tolerance(bits)),
        "<=",
    )


def _check_inner_root_identity(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            for factor in cached_factorization(k, bits).factors:
                rho = mp.mpc(factor.inner_root)
                deviation = max(
                    float(abs(rho * (1 / rho) - 1)),
                    float(abs(rho + 1 / rho - factor.root) / max(1, abs(factor.root))),
                    float(factor.residual),
                )
                worst.update(deviation, f"(k={k})")
    return worst.result(
        "inner-root-identity",
        "rho * (1/rho) = 1, rho + 1/rho = root, certified residuals",
        float(residual_tolerance(bits)),
        "<=",
    )


def _check_decomposition_residual(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    rng = random.Random(0xC0FFEE)
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(1, kmax + 1):
            sf = cached_factorization(k, bits)
            poles = [mp.mpc(2)] + [f.root for f in sf.factors]
            points = []
            while len(points) < 16:
                candidate = mp.mpc(rng.uniform(-6, 6), rng.uniform(-3, 3))
                if all(abs(candidate - pole) > 0.25 for pole in poles):
                    points.append(candidate)
            for point in points:
                worst.update(
                    float(check_decomposition(sf, point)),
                    f"(k={k}, x={mp.nstr(point, 5)})",
                )
    return worst.result(
        "partial-fraction-residual",
        "decomposition of 2k/phi_k holds at 16 random points per k",
        float(residual_tolerance(bits)),
        "<=",
    )


def _factor_terms(factor, bits):
    """(spec, base) pairs covering the full- and half-index sequences."""
    with mp.workprec(bits + _GUARD_BITS):
        sigma = mp.sqrt(mp.mpc(factor.inner_root))
    return (
        (full_index_spec(factor), mp.mpc(factor.inner_root)),
        (half_index_spec(factor, 1, bits), sigma),
    )


def _check_binet_recurrence(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            for factor in cached_factorization(k, bits).factors:
                for spec, base in _factor_terms(factor, bits):
                    for n in range(0, 65, 7):
                        by_recurrence = term_by_recurrence(spec, n, bits)
                        by_binet = term_by_binet(base, n, bits)
                        deviation = float(
                            abs(by_recurrence - by_binet)
                            / max(1, abs(by_recurrence))
                        )
                        worst.update(deviation, f"(k={k}, n={n})")
    return worst.result(
        "binet-recurrence-agreement",
        "three-term recurrence matches the Binet expression up to n=64",
        float(residual_tolerance(bits)),
        "<=",
    )


def _check_ratio_branch_invariance(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            sf = cached_factorization(k, bits)
            for n in range(2 * k + 1, min(nmax, 24) + 1):
                for factor in sf.factors:
                    pluses = correction_ratios(factor, n, "sequence", bits, 1)
                    minuses = correction_ratios(factor, n, "sequence", bits, -1)
                    for ell, (plus, minus) in enumerate(zip(pluses, minuses)):
                        worst.update(
                            float(abs(plus - minus) / max(1, abs(plus))),
                            f"(n={n}, k={k}, ell={ell})",
                        )
    return worst.result(
        "ratio-branch-invariance",
        "sequence-form ratio identical for both square-root branches",
        float(residual_tolerance(bits)),
        "<=",
    )


def _check_ratio_form_agreement(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            sf = cached_factorization(k, bits)
            for n in range(2 * k + 1, min(nmax, 48) + 1):
                for factor in sf.factors:
                    exp_forms = correction_ratios(factor, n, "exponential", bits)
                    seq_forms = correction_ratios(factor, n, "sequence", bits)
                    for ell, (exp_form, seq_form) in enumerate(
                        zip(exp_forms, seq_forms)
                    ):
                        worst.update(
                            float(abs(exp_form - seq_form) / max(1, abs(exp_form))),
                            f"(n={n}, k={k}, ell={ell})",
                        )
    return worst.result(
        "ratio-form-agreement",
        "exponential and sequence correction ratios agree",
        float(residual_tolerance(bits)),
        "<=",
    )


def _check_ratio_symmetry(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            sf = cached_factorization(k, bits)
            for n in range(2 * k + 1, min(nmax, 32) + 1):
                for factor in sf.factors:
                    ratios = correction_ratios(factor, n, "exponential", bits)
                    for ell in range(n // 2 + 1):
                        worst.update(
                            float(abs(ratios[ell] - ratios[n - ell])),
                            f"(n={n}, k={k}, ell={ell})",
                        )
    return worst.result(
        "ratio-symmetry",
        "correction ratio symmetric under ell <-> n - ell",
        0.0,
        "<=",
    )


def _check_ratio_conjugation(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in range(2, kmax + 1):
            sf = cached_factorization(k, bits)
            _, pairs = conjugate_pairs(sf.factors, bits)
            for n in range(2 * k + 1, min(nmax, 24) + 1):
                for upper, lower in pairs:
                    uppers = correction_ratios(upper, n, "exponential", bits)
                    lowers = correction_ratios(lower, n, "exponential", bits)
                    for ell in range(0, n + 1, max(1, n // 6)):
                        a, b = uppers[ell], lowers[ell]
                        worst.update(
                            float(abs(mp.conj(a) - b) / max(1, abs(a))),
                            f"(n={n}, k={k}, ell={ell})",
                        )
    return worst.result(
        "ratio-conjugation",
        "conjugate factors produce conjugate correction ratios",
        float(residual_tolerance(bits)),
        "<=",
    )


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _check_fibonacci_anchor(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    if kmax >= 2:
        sf = cached_factorization(2, bits)
        factor = sf.factors[0]
        with mp.workprec(bits + _GUARD_BITS):
            for n in range(5, min(nmax, 48) + 1):
                f_n = _fibonacci(n)
                ratios = correction_ratios(factor, n, "sequence", bits)
                for ell, ratio in enumerate(ratios):
                    expected = mp.mpf(-_fibonacci(ell) * _fibonacci(n - ell)) / f_n
                    worst.update(
                        float(abs(ratio - expected) / max(1, abs(expected))),
                        f"(n={n}, ell={ell})",
                    )
    return worst.result(
        "fibonacci-anchor",
        "k=2 sequence ratio reproduces -F_ell F_(n-ell) / F_n",
        float(residual_tolerance(bits)),
        "<=",
    )


def _check_oracle_agreement(kmax, nmax, bits) -> list[CheckResult]:
    spectral_worst = _Worst()
    closed_worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for spec in _specs(kmax, nmax):
            exact_all = hit_exact_all(spec)
            sf = cached_factorization(spec.k, bits)
            for ell in range(spec.n):
                exact = mp.mpf(exact_all[ell].numerator) / exact_all[ell].denominator
                case = f"(n={spec.n}, k={spec.k}, ell={ell})"
                spectral_worst.update(
                    _rel(hit_spectral(spec, ell, bits), exact), case
                )
                closed_worst.update(_rel(hit_closed(spec, ell, sf), exact), case)
    return [
        spectral_worst.result(
            "hitting-oracle-spectral",
            "spectral sum matches the exact solve",
            ORACLE_RTOL,
            "<=",
        ),
        closed_worst.result(
            "hitting-oracle-closed",
            "closed form matches the exact solve",
            ORACLE_RTOL,
            "<=",
        ),
    ]


def _check_hitting_symmetry(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for spec in _specs(kmax, nmax):
        exact_all = hit_exact_all(spec)
        for ell in range(1, spec.n):
            deviation = 0.0 if exact_all[ell] == exact_all[spec.n - ell] else 1.0
            worst.update(deviation, f"(n={spec.n}, k={spec.k}, ell={ell})")
    return worst.result(
        "hitting-symmetry",
        "h(0, ell) = h(0, n - ell) as exact rationals",
        0.0,
        "<=",
    )


def _check_k1_quadratic(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for n in range(3, nmax + 1):
        exact_all = hit_exact_all(GraphSpec(n, 1))
        for ell in range(n):
            deviation = 0.0 if exact_all[ell] == Fraction(ell * (n - ell)) else 1.0
            worst.update(deviation, f"(n={n}, ell={ell})")
    return worst.result(
        "k1-quadratic",
        "plain cycle: h(0, ell) = ell * (n - ell) exactly",
        0.0,
        "<=",
    )


def _check_complete_graph(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for k in range(1, kmax + 1):
        n = 2 * k + 1
        if n > nmax:
            break
        spec = GraphSpec(n, k)
        exact_all = hit_exact_all(spec)
        deviation = 0.0
        if any(exact_all[ell] != Fraction(2 * k) for ell in range(1, n)):
            deviation = 1.0
        if tau_det(spec) != n ** (n - 2):
            deviation = 1.0
        worst.update(deviation, f"(n={n}, k={k})")
    return worst.result(
        "complete-graph-degeneracy",
        "n = 2k+1: every hitting time is 2k and tau = n^(n-2)",
        0.0,
        "<=",
    )


def _check_discrete_quadratic_identity(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for n in range(3, nmax + 1):
            cosines = cosine_table(n, bits)
            for ell in range(n):
                total = mp.mpf(0)
                for j in range(1, n):
                    total += (1 - cosines[(j * ell) % n]) / (2 - 2 * cosines[j])
                expected = mp.mpf(ell * (n - ell)) / 2
                worst.update(_rel(total, expected), f"(n={n}, ell={ell})")
    return worst.result(
        "discrete-quadratic-identity",
        "sum_j (1 - cos(j ell theta))/(2 - 2 cos(j theta)) = ell(n-ell)/2",
        ORACLE_RTOL,
        "<=",
    )


def _check_resolvent_periodization(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for k in (2, 3):
            if k > kmax:
                continue
            sf = cached_factorization(k, bits)
            for n in range(2 * k + 1, min(nmax, 32) + 1):
                cosines = cosine_table(n, bits)
                for factor in sf.factors:
                    gamma = mp.mpc(factor.root)
                    ratios = correction_ratios(factor, n, "exponential", bits)
                    for ell in range(n):
                        direct = mp.mpc(0)
                        for j in range(1, n):
                            direct += (1 - cosines[(j * ell) % n]) / (
                                gamma - 2 * cosines[j]
                            )
                        via_ratio = n * ratios[ell]
                        worst.update(
                            float(
                                abs(direct - via_ratio)
                                / max(1, abs(direct), abs(via_ratio))
                            ),
                            f"(n={n}, k={k}, ell={ell})",
                        )
    return worst.result(
        "resolvent-periodization",
        "direct resolvent sum equals n * correction ratio",
        ORACLE_RTOL,
        "<=",
    )


def _check_tree_triple(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for spec in _specs(kmax, nmax):
            tau = tau_det(spec)
            sf = cached_factorization(spec.k, bits)
            deviation = max(
                _rel(tau_eigen(spec, bits), mp.mpf(tau)),
                _rel(tau_product(spec, sf), mp.mpf(tau)),
            )
            worst.update(deviation, f"(n={spec.n}, k={spec.k})")
    return worst.result(
        "tree-triple-agreement",
        "determinant, eigenvalue product, and root product all give tau",
        ORACLE_RTOL,
        "<=",
    )


def _check_forest_duality(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for spec in _specs(min(kmax, 4), min(nmax, 24)):
        for ell in range(1, spec.n):
            deviation = abs(forests(spec, ell) - tau_contracted(spec, ell))
            worst.update(float(deviation), f"(n={spec.n}, k={spec.k}, ell={ell})")
    return worst.result(
        "forest-contraction-duality",
        "two-component forest count equals contracted tree count "
        "(capped at k<=4, n<=24)",
        0.0,
        "<=",
    )


def _check_integrality(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for spec in _specs(kmax, nmax):
        tau = tau_det(spec)
        exact_all = hit_exact_all(spec)
        for ell in range(1, spec.n):
            value = tau * exact_all[ell] / spec.num_edges
            worst.update(
                0.0 if value.denominator == 1 else 1.0,
                f"(n={spec.n}, k={spec.k}, ell={ell})",
            )
    return worst.result(
        "forest-integrality",
        "tau * h(0, ell) is divisible by n*k",
        0.0,
        "<=",
    )


def _check_cycle_eigenvalue_product(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    with mp.workprec(bits + _GUARD_BITS):
        for n in range(3, nmax + 1):
            cosines = cosine_table(n, bits)
            product = mp.mpf(1)
            for j in range(1, n):
                product *= 2 - 2 * cosines[j]
            worst.update(_rel(product, mp.mpf(n * n)), f"(n={n})")
    return worst.result(
        "cycle-eigenvalue-product",
        "prod_j (2 - 2 cos(2 pi j/n)) = n^2",
        EIGENPRODUCT_RTOL,
        "<=",
    )


def _check_resistance_metric(kmax, nmax, bits) -> CheckResult:
    worst = _Worst()
    for spec in _specs(kmax, min(nmax, 24)):
        exact_all = hit_exact_all(spec)
        m = spec.num_edges
        res = [value / m for value in exact_all]
        deviation = 0.0
        if any(res[ell] != res[spec.n - ell] for ell in range(1, spec.n)):
            deviation = 1.0
        for a in range(1, spec.n):
            for b in range(1, spec.n):
                if res[(a + b) % spec.n] > res[a] + res[b]:
                    deviation = 1.0
        worst.update(deviation, f"(n={spec.n}, k={spec.k})")
    return worst.result(
        "resistance-metric",
        "R symmetric and subadditive along the cycle (capped at n<=24)",
        0.0,
        "<=",
    )


def _erratum_checks(kmax, nmax, bits) -> list[CheckResult]:
    """Informational fixtures showing how far the published closed-form
    variants sit from the exact oracle at (n=6, k=2, ell=1)."""
    results = []
    if kmax >= 2 and nmax >= 6:
        spec = GraphSpec(6, 2)
        sf = cached_factorization(2, bits)
        with mp.workprec(bits + _GUARD_BITS):
            oracle = mp.mpf(5)
            literal = hit_closed_literal(spec, 1, sf)
            results.append(
                CheckResult(
                    "erratum-full-index-ratio",
                    "full-index sequence ratio deviates from the oracle "
                    f"(value {mp.nstr(literal, 6)} vs exact 5 at n=6, k=2, ell=1)",
                    1,
                    float(abs(literal - oracle)),
                    1.0,
                    ">=",
                    True,
                    "(n=6, k=2, ell=1)",
                    informational=True,
                )
            )
            doubled = Fraction(2, 5) * 5 + Fraction(4, 5) * 6 * Fraction(
                _fibonacci(2) * _fibonacci(10), _fibonacci(12)
            )
            results.append(
                CheckResult(
                    "erratum-doubled-index-form",
                    "doubled-index Fibonacci form deviates from the oracle "
                    f"(value {float(doubled):.4f} vs exact 5 at n=6, k=2, ell=1)",
                    1,
                    float(abs(doubled - 5)),
                    1.0,
                    ">=",
                    True,
                    "(n=6, k=2, ell=1)",
                    informational=True,
                )
            )
    return results


_SINGLE_CHECKS: list[Callable] = [
    _check_laplacian_structure,
    _check_contraction_structure,
    _check_symbol_factorization,
    _check_psi_at_two,
    _check_phi_slope_at_two,
    _check_spectrum_positivity,
    _check_root_count,
    _check_root_spectrum_separation,
    _check_conjugate_closure,
    _check_inner_root_identity,
    _check_decomposition_residual,
    _check_binet_recurrence,
    _check_ratio_branch_invariance,
    _check_ratio_form_agreement,
    _check_ratio_symmetry,
    _check_ratio_conjugation,
    _check_fibonacci_anchor,
    _check_hitting_symmetry,
    _check_k1_quadratic,
    _check_complete_graph,
    _check_discrete_quadratic_identity,
    _check_resolvent_periodization,
    _check_tree_triple,
    _check_forest_duality,
    _check_integrality,
    _check_cycle_eigenvalue_product,
    _check_resistance_metric,
]


def run_verification(
    kmax: int, nmax: int, precision_bits: int = 256
) -> list[CheckResult]:
    """Run every check bounded by kmax and nmax; erratum fixtures included."""
    if not 1 <= kmax <= 8:
        raise ParameterError(f"kmax must be in 1..8, got {kmax}")
    if nmax < 2 * kmax + 1:
        raise ParameterError(f"nmax must be >= 2*kmax+1, got {nmax}")
    results: list[CheckResult] = []
    for check in _SINGLE_CHECKS:
        results.append(check(kmax, nmax, precision_bits))
    results.extend(_check_oracle_agreement(kmax, nmax, precision_bits))
    results.extend(_erratum_checks(kmax, nmax, precision_bits))
    return results
