"""Spanning trees, effective resistances, forests, and contracted tree counts.

Everything here comes in (at least) two independent flavours:

  * tau_det        -- exact spanning-tree count: determinant of the
                      Laplacian with vertex 0 deleted, fraction-free on
                      band rows;
  * tau_eigen      -- the eigenvalue product prod_{j>=1} lambda_j / n over the
                      fixed-point eigenvalue table that hit_spectral reads;
  * tau_product    -- the same product collapsed onto the inner roots, one
                      geometric factor per real root of psi_k and one
                      squared modulus per conjugate pair;
  * resistance     -- h(0, ell) / (n*k), exact, via the commute-time identity
                      on a vertex-transitive graph;
  * forests        -- two-component spanning forests separating 0 and ell:
                      tau * h / (n*k), exact rational arithmetic that must
                      land on an integer;
  * tau_contracted -- spanning trees of the graph with 0 and ell identified:
                      det L with both 0 and ell deleted, again exact on band
                      rows; equals forests.
  * contracted_counts -- tau_contracted for every ell: the diagonal of the
                      adjugate of L with 0 deleted, one elimination and one
                      back-sweep of exact divisions (see fractionfree).

Analytic tree counts are never rounded.  arboreal_counts checks tau_eigen
and tau_product against the exact tau_det within certified_bound, the error
bound they are printed with, and raises ConsistencyError beyond it.  It adds
resistance, forests and tau_contracted only when given an ell in 1..n-1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import fractionfree, spectral
from .errors import ConsistencyError
from .graphs import DEFAULT_PRECISION_BITS, GraphSpec, build_laplacian, check_ell
from .hitting import fixed_eigenvalues, fraction_bits, hit_exact

__all__ = [
    "ArborealCounts",
    "arboreal_counts",
    "contracted_counts",
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


@lru_cache(maxsize=1)
def _graph_tau(spec: GraphSpec) -> int:
    """tau_det(spec), once per graph for the forest counts of every ell: a
    hit costs well under a microsecond, where tau_det rebuilds and hashes the
    band rows even when fractionfree's factorization is cached."""
    return tau_det(spec)


def tau_eigen(spec: GraphSpec, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Spanning trees as the eigenvalue product, in high precision.

    The nonzero Laplacian eigenvalues multiply to n times the tree count.
    They are read as the integers Lambda_j = lambda_j 2^F that hit_spectral
    reads (fixed_eigenvalues), where Lambda_(n-j) = Lambda_j: the product
    over 1 <= j < n/2, kept as an (F + 64)-bit mantissa and an exponent, is
    squared, times Lambda_(n/2) for even n, and divided by n.

    Error bound, relative, p the working precision: each Lambda_j is within
    2^-(p+4) (see hitting.fraction_bits) and the roundings add less than
    n 2^-(F+64), so for n^2 < 2^p the product is within n 2^-(p+4) before
    its one rounding to p bits, and the value within 2^-p + n 2^-(p+4) of tau.
    """
    from mpmath import mp

    n = spec.n
    eigenvalues = fixed_eigenvalues(spec, precision_bits)
    bits = fraction_bits(n, precision_bits)
    mantissa, exponent = 1, 0
    for value in eigenvalues[1 : (n + 1) // 2]:
        mantissa *= value
        shift = mantissa.bit_length() - bits - 64
        mantissa = spectral.round_shift(mantissa, shift)
        exponent += shift - bits
    middle = eigenvalues[n // 2] if n % 2 == 0 else 1 << bits
    with spectral.working_precision(precision_bits):
        mantissa = spectral.round_divide(mantissa**2 * middle, n)
        return mp.mpf((mantissa, 2 * exponent - bits))


def tau_product(spec: GraphSpec, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Spanning trees via one geometric factor per inner root of
    cached_factorization(k, precision_bits).

    Each root contributes prod_{j>=1}(x_j - gamma) where x_j = 2 cos(2 pi j/n);
    in terms of the inner root this is

        (-1)^(n-1) * ((1 - rho^n)/(1 - rho))^2 / rho^(n-1).

    A conjugate pair, kept as its upper root, contributes |.|^2 of that
    root's factor (the pair's alternating signs cancel), which forces a real
    result.  A real root has an exactly real inner root, so its factor is
    computed in real arithmetic and multiplied in directly, carrying the
    (-1)^(n-1) sign that makes the product positive for even n as well.  The
    real roots are multiplied in first, then the pairs.  Grouping the square
    before dividing by rho^(n-1) keeps intermediates tame for large n.
    """
    from mpmath import mp

    n = spec.n
    factors = spectral.cached_factorization(spec.k, precision_bits).factors
    with spectral.working_precision(precision_bits):
        accumulator = mp.mpf(n)
        parity = -1 if n % 2 == 0 else 1
        for factor in sorted(factors, key=lambda factor: factor.root.imag != 0):
            real = factor.root.imag == 0
            rho = mp.re(factor.inner_root) if real else mp.mpc(factor.inner_root)
            value = ((1 - rho**n) / (1 - rho)) ** 2 / rho ** (n - 1)
            accumulator *= value * parity if real else abs(value) ** 2
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
    tau and the hitting times are computed once per graph and reused for
    every ell while that graph is the latest one asked for.
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


def contracted_counts(spec: GraphSpec) -> tuple[int, ...]:
    """tau_contracted(spec, ell) for every ell, indexed by ell (0 at ell = 0),
    from one fractionfree.adjugate_diagonal put back in vertex order."""
    order, rows = build_laplacian(spec, (0,))
    counts = [0] * spec.n
    for vertex, count in zip(order, fractionfree.adjugate_diagonal(rows)):
        counts[vertex] = count
    return tuple(counts)


class ArborealCounts(NamedTuple):
    """Exact counts with their analytic cross-checks for one (spec, ell).

    resistance, forest_count and contracted_tree_count are set only when ell
    is given; the last two are equal by construction (a mismatch raises
    instead).
    """

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

    ell is None or in 1..n-1, checked before any count is computed.  The
    eigenvalue and root products must lie within certified_bound of the
    determinant count; ConsistencyError otherwise.
    """
    from mpmath import mp

    if ell is not None:
        check_ell(spec, ell, lowest=1)
    tau = tau_det(spec)
    eigen = tau_eigen(spec, precision_bits)
    product = tau_product(spec, precision_bits)
    with spectral.working_precision(precision_bits):
        for route, value in (("eigenvalue", eigen), ("root", product)):
            bound = spectral.certified_bound(value, precision_bits)
            if abs(value - tau) > bound:
                raise ConsistencyError(
                    f"{route} tree product {mp.nstr(value, 20)} disagrees with "
                    f"the determinant count {tau} by more than "
                    f"{mp.nstr(bound, 3)}"
                )
    if ell is None:
        return ArborealCounts(tau, eigen, product, None, None, None)
    res = resistance(spec, ell)
    forest_count = forests(spec, ell)
    contracted = tau_contracted(spec, ell)
    if forest_count != contracted:
        raise ConsistencyError(
            f"forest count {forest_count} != contracted tree count {contracted}"
        )
    return ArborealCounts(tau, eigen, product, res, forest_count, contracted)
