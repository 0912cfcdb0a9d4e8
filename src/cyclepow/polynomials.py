"""Exact integer polynomials for the Laplacian symbol of cycle powers.

Under the substitution x = z + 1/z, each two-sided power z^r + z^-r becomes an
integer polynomial P_r(x) (a rescaled Chebyshev polynomial, P_r(x) =
2*T_r(x/2)) obeying P_0 = 2, P_1 = x, P_{r+1} = x*P_r - P_{r-1}.  The symbol
of the distance-k Laplacian is then

    phi_k(x) = 2k - sum_{r=1..k} P_r(x),

whose values at x = 2*cos(2*pi*j/N) are exactly the Laplacian eigenvalues.
phi_k vanishes at x = 2, and dividing that root out gives the degree-(k-1)
cofactor psi_k with phi_k(x) = (2 - x) * psi_k(x).  Both are built on
coefficient lists: the P_r by their recurrence, psi_k by reading the
coefficients of phi_k from the top.  The division is exact by construction,
so a remainder is treated as a bug rather than an error the caller could
cause.

Coefficients are arbitrary-precision integers throughout; they stay small at
desk scale, but exactness removes all overflow reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, ParameterError

__all__ = [
    "IntPolynomial",
    "basis_term",
    "build_phi",
    "build_psi",
    "eval_poly",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial, constant term first.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is canonically (0,) with degree -1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1


def basis_term(r: int) -> IntPolynomial:
    """P_r, the polynomial expressing z^r + z^-r in x = z + 1/z."""
    if r < 0:
        raise ParameterError(f"r must be >= 0, got {r}")
    prev, cur = [2], [0, 1]
    if r == 0:
        return IntPolynomial(tuple(prev))
    for _ in range(r - 1):
        step = [0] + cur  # x * P_r
        for i, c in enumerate(prev):
            step[i] -= c
        prev, cur = cur, step
    return IntPolynomial(tuple(cur))


def build_phi(k: int) -> IntPolynomial:
    """The degree-k Laplacian symbol phi_k(x) = 2k - sum_{r=1..k} P_r(x)."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    acc = [2 * k] + [0] * k
    for r in range(1, k + 1):
        for i, c in enumerate(basis_term(r).coeffs):
            acc[i] -= c
    return IntPolynomial(tuple(acc))


def build_psi(k: int) -> IntPolynomial:
    """The degree-(k-1) cofactor psi_k with phi_k(x) = (2 - x) * psi_k(x).

    Matching coefficients gives phi_d = -psi_(d-1) at the top degree d,
    phi_i = 2*psi_i - psi_(i-1) for 0 < i < d and phi_0 = 2*psi_0, so psi_k
    is read off from the top; ConsistencyError is raised unless the last
    equation, the remainder of the division, holds.
    """
    phi = build_phi(k).coeffs
    degree = len(phi) - 1
    psi = [0] * degree
    psi[-1] = -phi[degree]
    for i in range(degree - 1, 0, -1):
        psi[i - 1] = 2 * psi[i] - phi[i]
    if 2 * psi[0] != phi[0]:
        raise ConsistencyError(f"2 - x does not divide phi_{k}")
    return IntPolynomial(tuple(psi))


def eval_poly(p: IntPolynomial, point):
    """Horner evaluation in the arithmetic of `point` (int, Fraction, mpf,
    mpc, ... anything with * and +)."""
    acc = 0 * point
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc

