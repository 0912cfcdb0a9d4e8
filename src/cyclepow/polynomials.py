"""Exact integer polynomials for the Laplacian symbol of cycle powers.

Under the substitution x = z + 1/z, each two-sided power z^r + z^-r becomes an
integer polynomial P_r(x) (a rescaled Chebyshev polynomial, P_r(x) =
2*T_r(x/2)) obeying P_0 = 2, P_1 = x, P_{r+1} = x*P_r - P_{r-1}.  The symbol
of the distance-k Laplacian is then

    phi_k(x) = 2k - sum_{r=1..k} P_r(x),

whose values at x = 2*cos(2*pi*j/N) are exactly the Laplacian eigenvalues.
phi_k vanishes at x = 2, and dividing that root out gives the degree-(k-1)
cofactor psi_k with phi_k(x) = (2 - x) * psi_k(x).  Every polynomial here is
a plain tuple of integer coefficients, constant term first: the P_r are built
by their recurrence, psi_k by reading the coefficients of phi_k from the top.
The top coefficient is -1 for phi_k and 1 for psi_k and every P_r, so no
tuple ends in a zero and its length less one is its degree.  The division is
exact by construction, so a remainder is treated as a bug rather than an
error the caller could cause.

Coefficients are arbitrary-precision integers throughout; they stay small at
desk scale, but exactness removes all overflow reasoning.
"""

from __future__ import annotations

from .errors import ConsistencyError, ParameterError

__all__ = [
    "basis_term",
    "build_phi",
    "build_psi",
    "eval_poly",
]


def _basis_terms(k: int):
    """P_0, P_1, ..., P_k as coefficient lists, by one pass of
    P_(r+1) = x * P_r - P_(r-1): O(k^2) coefficient operations."""
    prev, cur = [0, 1], [2]  # P_(-1) = P_1 = x, and P_0
    yield cur
    for _ in range(k):
        step = [0] + cur  # x * P_r
        for i, c in enumerate(prev):
            step[i] -= c
        prev, cur = cur, step
        yield cur


def basis_term(r: int) -> tuple[int, ...]:
    """P_r, the polynomial expressing z^r + z^-r in x = z + 1/z."""
    if r < 0:
        raise ParameterError(f"r must be >= 0, got {r}")
    *_, last = _basis_terms(r)
    return tuple(last)


def build_phi(k: int) -> tuple[int, ...]:
    """The degree-k Laplacian symbol phi_k(x) = 2k - sum_{r=1..k} P_r(x),
    each P_r subtracted as the recurrence makes it."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    acc = [2 * k] + [0] * k
    terms = _basis_terms(k)
    next(terms)  # P_0
    for term in terms:
        for i, c in enumerate(term):
            acc[i] -= c
    return tuple(acc)


def build_psi(k: int) -> tuple[int, ...]:
    """The degree-(k-1) cofactor psi_k with phi_k(x) = (2 - x) * psi_k(x).

    Matching coefficients gives phi_d = -psi_(d-1) at the top degree d,
    phi_i = 2*psi_i - psi_(i-1) for 0 < i < d and phi_0 = 2*psi_0, so psi_k
    is read off from the top; ConsistencyError is raised unless the last
    equation, the remainder of the division, holds.
    """
    phi = build_phi(k)
    degree = len(phi) - 1
    psi = [0] * degree
    psi[-1] = -phi[degree]
    for i in range(degree - 1, 0, -1):
        psi[i - 1] = 2 * psi[i] - phi[i]
    if 2 * psi[0] != phi[0]:
        raise ConsistencyError(f"2 - x does not divide phi_{k}")
    return tuple(psi)


def eval_poly(coeffs: tuple[int, ...], point):
    """Horner evaluation of `coeffs`, constant term first, in the arithmetic
    of `point` (int, Fraction, mpf, mpc, ... anything with * and +)."""
    acc = 0 * point
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc

