"""Spanning trees, effective resistances, forests, and contracted tree counts.

Everything here comes in (at least) two independent flavours:

  * tau_det        -- exact spanning-tree count: determinant of the
                      Laplacian with vertex 0 deleted, fraction-free on
                      band rows;
  * tau_eigen      -- the eigenvalue product prod_{j>=1} lambda_j / n over the
                      Laplacian eigenvalue table;
  * tau_product    -- the same product collapsed onto the inner roots, one
                      geometric factor per root of psi_k;
  * resistance     -- h(0, ell) / (n*k), exact, via the commute-time identity
                      on a vertex-transitive graph;
  * forests        -- two-component spanning forests separating 0 and ell:
                      tau * h / (n*k), exact rational arithmetic that must
                      land on an integer;
  * tau_contracted -- spanning trees of the graph with 0 and ell identified:
                      det L with both 0 and ell deleted, again exact on band
                      rows; equals forests.

Analytic tree counts are never rounded silently.  A value is rounded only
when its certified error, |value| * residual_tolerance(precision_bits), is
below 1/2 and it lies within 1e-6 (absolute-or-relative) of an integer;
anything else fails loudly, since quiet rounding would mask precision bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from . import fractionfree
from .errors import ConsistencyError, PrecisionError
from .graphs import GraphSpec, build_laplacian, check_ell
from .hitting import hit_exact, laplacian_eigenvalues
from .spectral import (
    _GUARD_BITS,
    DEFAULT_PRECISION_BITS,
    cached_factorization,
    conjugate_pairs,
    residual_tolerance,
)

__all__ = [
    "ArborealCounts",
    "arboreal_counts",
    "forests",
    "nearest_integer",
    "resistance",
    "tau_contracted",
    "tau_det",
    "tau_eigen",
    "tau_product",
]

# Rounding contract for analytic tree counts.
ROUNDING_DEFECT_LIMIT = 1e-6


def tau_det(spec: GraphSpec) -> int:
    """Spanning trees as the reduced-Laplacian determinant, exact (vertex 0
    deleted, band rows in fold order)."""
    return fractionfree.determinant(build_laplacian(spec, (0,))[1])


@lru_cache(maxsize=512)
def _graph_tau(spec: GraphSpec) -> int:
    """tau_det(spec), once per graph for the forest counts of every ell."""
    return tau_det(spec)


def tau_eigen(spec: GraphSpec, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Spanning trees as the eigenvalue product, in high precision.

    The product of the nonzero Laplacian eigenvalues lambda_1..lambda_(n-1),
    divided by n, counts spanning trees; they are read from the table
    hit_spectral reads, laplacian_eigenvalues(spec, precision_bits).
    """
    eigenvalues = laplacian_eigenvalues(spec, precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        return mp.fprod(eigenvalues[1:]) / spec.n


def tau_product(spec: GraphSpec, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Spanning trees via one geometric factor per inner root of
    cached_factorization(k, precision_bits).

    Each root contributes prod_{j>=1}(x_j - gamma) where x_j = 2 cos(2 pi j/n);
    in terms of the inner root this is

        (-1)^(n-1) * ((1 - rho^n)/(1 - rho))^2 / rho^(n-1).

    Conjugate factors are merged pairwise into |.|^2 (their alternating signs
    cancel), which halves the complex work and forces a real result; leftover
    real roots are multiplied directly, each carrying the (-1)^(n-1) sign that
    makes the product positive for even n as well.  Grouping the square before
    dividing by rho^(n-1) keeps intermediates tame for large n.
    """
    n = spec.n
    factors = cached_factorization(spec.k, precision_bits).factors
    with mp.workprec(precision_bits + _GUARD_BITS):
        reals, pairs = conjugate_pairs(factors)
        accumulator = mp.mpf(n)
        parity = -1 if n % 2 == 0 else 1
        for factor in reals:
            rho = mp.mpc(factor.inner_root)
            value = ((1 - rho**n) / (1 - rho)) ** 2 / rho ** (n - 1) * parity
            tolerance = residual_tolerance(precision_bits) * max(1, abs(value))
            if abs(mp.im(value)) > tolerance:
                raise PrecisionError(
                    "real-root tree factor has a nonreal residue beyond tolerance"
                )
            accumulator *= mp.re(value)
        for upper, _lower in pairs:
            rho = mp.mpc(upper.inner_root)
            value = ((1 - rho**n) / (1 - rho)) ** 2 / rho ** (n - 1)
            accumulator *= abs(value) ** 2
        return accumulator


def resistance(spec: GraphSpec, ell: int) -> Fraction:
    """Effective resistance R(0, ell) = h(0, ell) / (n*k), exact.

    On a vertex-transitive graph the commute-time identity collapses to
    h = m * R with m = n*k edges.
    """
    return hit_exact(spec, ell) / spec.num_edges


def forests(spec: GraphSpec, ell: int) -> int:
    """Two-component spanning forests separating 0 and ell.

    tau * h(0, ell) / (n*k) computed in exact rational arithmetic; the result
    must reduce to an integer, anything else indicates a broken invariant.
    tau and the hitting times are each computed once per graph and reused
    for every ell.
    """
    check_ell(spec, ell, lowest=1)
    value = _graph_tau(spec) * hit_exact(spec, ell) / spec.num_edges
    if value.denominator != 1:
        raise ConsistencyError(
            f"forest count {value} is not an integer for n={spec.n}, "
            f"k={spec.k}, ell={ell}"
        )
    return int(value)


def tau_contracted(spec: GraphSpec, ell: int) -> int:
    """Spanning trees of the multigraph with vertices 0 and ell identified.

    Deleting the merged vertex's row and column from that multigraph's
    Laplacian leaves the Laplacian with both 0 and ell deleted, so by the
    matrix-tree theorem the count is its determinant.
    """
    check_ell(spec, ell, lowest=1)
    return fractionfree.determinant(build_laplacian(spec, (0, ell))[1])


def nearest_integer(value, precision_bits: int = DEFAULT_PRECISION_BITS) -> int:
    """Round an analytic count to the integer it must equal, or fail loudly.

    value comes from a route whose relative error is certified below
    residual_tolerance(precision_bits).  Rounding is refused unless the
    absolute error that allows is below 1/2, so the nearest integer is the
    only candidate; the PrecisionError names a precision that suffices.
    """
    with mp.workprec(mp.prec + _GUARD_BITS):
        if abs(value) * residual_tolerance(precision_bits) >= 0.5:
            # |value| <= 2^mag, so 2^(mag+2) * 2^(-bits/2) <= 1/4 at this bits.
            enough = 2 * (int(mp.mag(value)) + 2)
            raise PrecisionError(
                f"cannot round {mp.nstr(mp.mpf(value), 12)} to an integer: at "
                f"precision_bits={precision_bits} its certified error exceeds "
                f"1/2; use precision_bits >= {enough}"
            )
        nearest = mp.nint(value)
        defect = abs(value - nearest) / max(1, abs(nearest))
        if defect > ROUNDING_DEFECT_LIMIT:
            raise PrecisionError(
                f"refusing to round {mp.nstr(mp.mpf(value), 12)} to an integer "
                f"(defect {mp.nstr(mp.mpf(defect), 4)}); increase the working "
                "precision"
            )
        return int(nearest)


@dataclass(frozen=True)
class ArborealCounts:
    """Exact counts with their analytic cross-checks for one (spec, ell).

    forest_count and contracted_tree_count are populated only when ell is
    given; they are equal by construction (a mismatch raises instead).
    """

    spec: GraphSpec
    ell: int | None
    tree_count: int
    tree_count_eigen: object
    tree_count_product: object
    resistance: Fraction | None
    forest_count: int | None
    contracted_tree_count: int | None


def arboreal_counts(
    spec: GraphSpec,
    ell: int | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> ArborealCounts:
    """Bundle every count for (spec, ell), cross-checking all routes."""
    tau = tau_det(spec)
    eigen = tau_eigen(spec, precision_bits)
    product = tau_product(spec, precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        if nearest_integer(eigen, precision_bits) != tau:
            raise ConsistencyError(
                f"eigenvalue tree product {mp.nstr(eigen, 20)} disagrees with "
                f"the determinant count {tau}"
            )
        if nearest_integer(product, precision_bits) != tau:
            raise ConsistencyError(
                f"root tree product {mp.nstr(product, 20)} disagrees with "
                f"the determinant count {tau}"
            )
    if ell is None:
        return ArborealCounts(spec, None, tau, eigen, product, None, None, None)
    res = resistance(spec, ell)
    forest_count = forests(spec, ell) if ell != 0 else None
    contracted = tau_contracted(spec, ell) if ell != 0 else None
    if forest_count is not None and forest_count != contracted:
        raise ConsistencyError(
            f"forest count {forest_count} != contracted tree count {contracted}"
        )
    return ArborealCounts(
        spec, ell, tau, eigen, product, res, forest_count, contracted
    )
