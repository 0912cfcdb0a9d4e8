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

Analytic tree counts are never rounded.  arboreal_counts checks tau_eigen
and tau_product against the exact tau_det within certified_bound, the error
bound they are printed with, and raises ConsistencyError beyond it.
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
    certified_bound,
    conjugate_pairs,
)

__all__ = [
    "ArborealCounts",
    "arboreal_counts",
    "forests",
    "resistance",
    "tau_contracted",
    "tau_det",
    "tau_eigen",
    "tau_product",
]


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
            if abs(mp.im(value)) > certified_bound(value, precision_bits):
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
    """Bundle every count for (spec, ell), cross-checking all routes.

    The eigenvalue and root products must lie within certified_bound of the
    determinant count; ConsistencyError otherwise.
    """
    tau = tau_det(spec)
    eigen = tau_eigen(spec, precision_bits)
    product = tau_product(spec, precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        for route, value in (("eigenvalue", eigen), ("root", product)):
            bound = certified_bound(value, precision_bits)
            if abs(value - tau) > bound:
                raise ConsistencyError(
                    f"{route} tree product {mp.nstr(value, 20)} disagrees with "
                    f"the determinant count {tau} by more than "
                    f"{mp.nstr(bound, 3)}"
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
