"""Roots of psi_k, their inner roots, and the partial-fraction data.

The rational function 2k / phi_k(x) splits over the simple poles of phi_k:

    2k / phi_k(x) = B / (2 - x) + sum_a A_a / (gamma_a - x),

where gamma_1..gamma_{k-1} are the roots of psi_k, B = 2k / psi_k(2) =
12 / ((k+1)(2k+1)) exactly, and A_a = -2k / ((2 - gamma_a) * psi_k'(gamma_a)).
Each gamma lies off the real interval [-2, 2] (the spectrum arc), so it is
rho + 1/rho for exactly one rho with |rho| < 1; that inner root drives all
the geometric corrections downstream.

The inner roots are found directly: f(z) = z^(2k+1) - (2k+1) z^(k+1) +
(2k+1) z^k - 1 equals z^(k-1) (z - 1)^3 psi_k(z + 1/z), so they are the
k - 1 roots of f inside the unit circle.  One branch per real root and per
conjugate pair is seeded at 64 bits from f's form near the unit circle and
polished by Newton iteration on f at the working precision; the one real
branch (k even) is stepped in mpf and stays exactly real.  partial_fractions
evaluates no other polynomial away from x = 2: f's four terms, built on one
power rho^(k-1), also give the bound on |psi_k(gamma)| and the slope
psi_k'(gamma) that A needs, so their rounding does not grow with psi_k's
coefficients; psi_k is read only at 2, exactly, for B.  An upper root of f
is the conjugate rho of an upper gamma.  mpmath rounds complex operations
symmetrically, so the lower gamma's inner root and coefficient would come
out exact conjugates of the upper's, and so would the correction ratios
built from them, in mpmath or in fixed point (see recurrences).  So
partial_fractions keeps one factor per real root and one per conjugate pair,
the upper root standing for both: a pair contributes twice the real part of
the upper factor's term to a real sum, and its conjugate term where a
complex one is needed.  Each bound on |psi_k(gamma)| is certified against
the 2^(-precision_bits/2) convention used package-wide, and |rho| and the
distinctness of the roots are verified numerically per k rather than
assumed.  working_bits is the one working precision of every analytic value;
no other module names the guard bits.  The fixed-point format is here too:
v * 2^F to the nearest (Gaussian) integer, ties away from zero.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from mpmath import mp

from . import polynomials
from .errors import (
    ConsistencyError,
    DegeneracyError,
    ParameterError,
    PrecisionError,
)
from .graphs import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "FactorData",
    "MIN_PRECISION_BITS",
    "SpectralFactorization",
    "cached_factorization",
    "check_decomposition",
    "partial_fractions",
    "residual_tolerance",
    "separation_tolerance",
]

# Extra working bits so results are accurate at the *requested* precision.
_GUARD_BITS = 32

_NEWTON_BUDGET = 100


def working_bits(precision_bits: int) -> int:
    """p = precision_bits + _GUARD_BITS, the working precision of every analytic
    value requested at precision_bits; ParameterError below the floor."""
    if precision_bits < MIN_PRECISION_BITS:
        raise ParameterError(f"precision_bits must be >= {MIN_PRECISION_BITS}")
    return precision_bits + _GUARD_BITS


def working_precision(precision_bits: int):
    """mp.workprec(working_bits(precision_bits)), checked before it is entered."""
    return mp.workprec(working_bits(precision_bits))


def round_shift(value: int, shift: int) -> int:
    """value / 2^shift to the nearest integer (a left shift for shift <= 0)."""
    if shift <= 0:
        return value << -shift
    half = 1 << (shift - 1)
    return (value + half) >> shift if value >= 0 else -((half - value) >> shift)


def round_divide(value: int, divisor: int) -> int:
    """value / divisor rounded to the nearest integer, for divisor > 0."""
    quotient = (2 * abs(value) + divisor) // (2 * divisor)
    return quotient if value >= 0 else -quotient


def to_fixed(value, bits: int):
    """value * 2^bits rounded: an int for an mpf, a Gaussian integer for an mpc."""
    if isinstance(value, mp.mpc):
        return to_fixed(value.real, bits), to_fixed(value.imag, bits)
    sign, man, exp, _ = value._mpf_
    return round_shift(-man if sign else man, -(exp + bits))


def gaussian_product(a, b, shift: int):
    """The Gaussian product a * b / 2^shift, each part rounded."""
    (w, x), (y, z) = a, b
    return round_shift(w * y - x * z, shift), round_shift(w * z + x * y, shift)


def residual_tolerance(precision_bits: int):
    """2^(-precision_bits/2), the package-wide certified-residual bound, in
    the caller's working precision."""
    return _residual_tolerance(precision_bits, mp.prec)


@lru_cache(maxsize=8)
def _residual_tolerance(precision_bits: int, prec: int, /):
    """residual_tolerance formed once per (precision_bits, mp.prec): the
    value is rounded to the working precision prec, and an mpf is immutable,
    so every row printed at that precision shares it."""
    return mp.mpf(2) ** (mp.mpf(-precision_bits) / 2)


def certified_bound(value, precision_bits: int):
    """residual_tolerance(precision_bits) * max(1, |value|), the error bound
    every analytic value is certified to and printed with, in the caller's
    working precision."""
    return residual_tolerance(precision_bits) * max(1, abs(value))


def separation_tolerance(precision_bits: int):
    """2^(-precision_bits/4), used for root separation and degeneracy guards."""
    return mp.mpf(2) ** (mp.mpf(-precision_bits) / 4)


class FactorData(NamedTuple):
    """One correction factor: a root of psi_k with its derived quantities.

    root         -- gamma, a root of psi_k (high-precision complex)
    inner_root   -- rho with rho + 1/rho = root and |rho| < 1
    coefficient  -- A, the partial-fraction coefficient at this pole
    residual     -- a first-order bound on |psi_k(root)|, read through the
                    inner equation at inner_root, and certified within
                    2^(-precision_bits/2)
    """

    root: object
    inner_root: object
    coefficient: object
    residual: object


class SpectralFactorization(NamedTuple):
    """Partial-fraction decomposition of 2k / phi_k at a stated precision.

    pole_coefficient is B = 12/((k+1)(2k+1)), kept as an exact rational so the
    quadratic term of the closed-form hitting time stays exact.  factors holds
    one factor per real root of psi_k and one per conjugate pair, in the
    order (Re, Im) of their roots: a non-real factor has Im(root) > 0 and
    stands for its conjugate too.
    """

    k: int
    precision_bits: int
    pole_coefficient: Fraction
    factors: tuple[FactorData, ...]


def _inner_equation(k: int, z):
    """f(z), f'(z) and w = z^(k-1), for the four-term inner equation

        f(z) = z^(2k+1) - (2k+1) z^(k+1) + (2k+1) z^k - 1
             = z^(k-1) (z - 1)^3 psi_k(z + 1/z),

    whose roots are 1 (triple) and the inner roots of psi_k's roots with
    their reciprocals.  Both are built on the one power w, in O(log k)
    products: f(z) = w z (w z^2 - (2k+1)(z - 1)) - 1 and
    f'(z) = (2k+1) w (w z^2 - (k+1) z + k).
    """
    w = z ** (k - 1)
    wz2 = w * z * z
    value = w * z * (wz2 - (2 * k + 1) * (z - 1)) - 1
    return value, (2 * k + 1) * w * (wz2 - (k + 1) * z + k), w


def _seed(k: int, j: int):
    """A rough root of the inner equation f on branch j, for 1 <= j <= k/2.

    Near the unit circle f(z) = 0 reads z^k (2k+1)(1 - z) = 1, so the inner
    roots sit near the fixed points of z <- w^j ((2k+1)(1 - z))^(-1/k),
    w = e^(2 pi i/k), j = 1..k-1.  Branch j <= k/2 has Im z > 0, except
    that j = k/2 is real and is stepped in mpf so that it stays exactly
    real.  The map contracts by at most 0.14 (at k = 2), and four steps
    from 0 at 64 bits leave every seed within 1/800 of its distance to any
    other root of f (both measured for k <= 256).
    """
    with mp.workprec(MIN_PRECISION_BITS):
        if 2 * j == k:
            turn, z = -1, mp.mpf(0)
        else:
            turn, z = mp.expjpi(mp.mpf(2 * j) / k), mp.mpc(0)
        exponent = -1 / mp.mpf(k)
        for _ in range(4):
            z = turn * ((2 * k + 1) * (1 - z)) ** exponent
    return z


def _polish(k: int, z, tol, target):
    """Newton iteration on the inner equation f from z, kept to the iterate
    with the least |f|.

    Stops once |f| <= target, or once it bounces on the rounding floor
    below tol; PrecisionError unless the least |f| is within tol.
    """
    best = z
    best_residual = mp.inf
    for _ in range(_NEWTON_BUDGET):
        value, slope, _ = _inner_equation(k, z)
        residual = abs(value)
        if residual < best_residual:
            best, best_residual = z, residual
        elif best_residual <= tol:
            break  # bouncing on the rounding floor; keep the best
        if residual <= target:
            break
        if slope == 0:
            break
        z = z - value / slope
    if best_residual > tol:
        raise PrecisionError(
            "root refinement did not converge; retry with higher precision_bits"
        )
    return best


def _root_data(k: int, rho):
    """gamma = rho + 1/rho, a bound on |psi_k(gamma)|, and psi_k'(gamma),
    all read through f at the inner root rho (|rho| < 1) at the working
    precision p = mp.prec.

    With w = rho^(k-1) and s = w (rho - 1)^3, psi_k(rho + 1/rho) = f(rho) / s
    exactly.  Differentiating f(z) = z^(k-1) (z - 1)^3 psi_k(z + 1/z) gives
    f'(z) = (z^(k-1) (z - 1)^3)' psi_k(z + 1/z) + s psi_k'(z + 1/z) (1 - z^-2),
    whose first term vanishes at a root, so psi_k'(gamma) = f'(rho) /
    (s (1 - rho^-2)).  Two roundings separate what is read from
    psi_k(gamma); mpmath rounds each part of a sum or product once, within
    2^-p of it:

    - f(rho) is formed from w in eight roundings, each within 2^-p of a
      partial sum no larger than T = |w|^2 |rho|^3 + (2k+1) |w rho (rho - 1)|
      + 1, the size of f's terms, so it is read within (6 + 2e) 2^-p T if w
      carries e units of rounding.  mpmath rounds the exact power once
      (e = 1), or forms exp((k-1) log rho) with 10 guard bits (e about
      1 + (k-1) |log rho| 2^-9), so e <= 5 for k up to about 500 and f(rho)
      is read within 2^(4-p) T.
    - The stored gamma is rounded: each part of 1/rho is its quotient by
      |rho|^2 (formed with 10 guard bits), rounded once, and each part of
      the sum is rounded once, so |gamma - (rho + 1/rho)| <=
      2^(1-p) (|gamma| + |1/rho|).

    So, to first order in the rounding (what is left is of order 2^-2p),

        |psi_k(gamma)| <= (|f(rho)| + 2^(4-p) T) / |s|
                          + |psi_k'(gamma)| 2^(1-p) (|gamma| + |1/rho|).

    Neither term grows with psi_k's coefficients, as the rounding of Horner
    on psi_k does (with sum |c_i| |gamma|^i).
    """
    gamma = mp.mpc(rho + 1 / rho)
    value, slope, power = _inner_equation(k, rho)
    scale = power * (rho - 1) ** 3
    dpsi = slope / (scale * (1 - rho**-2))
    terms = abs(power * rho) * (abs(power * rho**2) + (2 * k + 1) * abs(rho - 1)) + 1
    rounding = 8 * terms / abs(scale) + abs(dpsi) * (abs(gamma) + 1 / abs(rho))
    return gamma, abs(value / scale) + mp.ldexp(rounding, 1 - mp.prec), dpsi


def _check_separation(roots, precision_bits: int) -> None:
    """ConsistencyError unless the roots and the conjugates of the non-real
    ones lie pairwise more than separation_tolerance apart.

    Sorted by real part, each root is compared only with the later roots
    whose real part lies within the tolerance, O(k log k) for separated
    roots.  No pair that is skipped could fail: each part of a complex
    difference is rounded as the real difference is, and the rounded
    modulus is at least the rounded real part's size.
    """
    roots = sorted(
        roots + [mp.conj(root) for root in roots if root.imag],
        key=lambda root: root.real,
    )
    min_separation = separation_tolerance(precision_bits)
    for i, root in enumerate(roots):
        for j in range(i + 1, len(roots)):
            if roots[j].real - root.real > min_separation:
                break
            if abs(roots[j] - root) <= min_separation:
                raise ConsistencyError("refined roots are not numerically distinct")


def partial_fractions(
    k: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> SpectralFactorization:
    """Assemble the decomposition data for 2k / phi_k: one factor per real
    root and one per conjugate pair, kept as its upper root."""
    from fractions import Fraction

    # psi_k(2) = k(k+1)(2k+1)/6 pins B exactly; both expressions must agree.
    psi_at_2 = polynomials.eval_poly(polynomials.build_psi(k), 2)
    if 6 * psi_at_2 != k * (k + 1) * (2 * k + 1):
        raise ConsistencyError("psi_k(2) does not match k(k+1)(2k+1)/6")
    pole_coefficient = Fraction(2 * k, psi_at_2)

    factors = []
    with working_precision(precision_bits):
        tol = residual_tolerance(precision_bits)
        # Polish down to the rounding floor, so that rho, and gamma built on
        # it, stay clean at the full working precision; the floor ends it.
        target = mp.mpf(2) ** -working_bits(precision_bits)
        edge = 1 - separation_tolerance(precision_bits)
        for branch in range(1, k // 2 + 1):
            # An upper root of f is the conjugate of an upper gamma's rho.
            rho = mp.conj(_polish(k, _seed(k, branch), tol, target))
            if abs(rho) >= edge:
                raise DegeneracyError(
                    "inner root lies within 2^(-precision_bits/4) of the unit circle"
                )
            gamma, residual, dpsi = _root_data(k, rho)
            if residual > tol:
                raise PrecisionError(
                    f"|psi_{k}(gamma)| exceeds 2^(-precision_bits/2); retry "
                    "with higher precision_bits"
                )
            coefficient = -2 * k / ((2 - gamma) * dpsi)
            factors.append(FactorData(gamma, mp.mpc(rho), coefficient, residual))
        factors.sort(key=lambda factor: (factor.root.real, factor.root.imag))
        _check_separation([factor.root for factor in factors], precision_bits)
    return SpectralFactorization(
        k=k,
        precision_bits=precision_bits,
        pole_coefficient=pole_coefficient,
        factors=tuple(factors),
    )


@lru_cache(maxsize=64)
def cached_factorization(k: int, precision_bits: int, /) -> SpectralFactorization:
    """Memoised partial_fractions; safe because the result is immutable.

    Positional-only with no default, so each (k, precision_bits) has exactly
    one cache key."""
    return partial_fractions(k, precision_bits)


def check_decomposition(sf: SpectralFactorization, x):
    """|2k/phi_k(x) - B/(2-x) - sum A_a/(gamma_a - x)| at the stated precision.

    Both sides are evaluated independently: the left through the integer
    polynomial phi_k, the right through the stored decomposition, each
    non-real factor adding its conjugate pole's term before its own.  The
    point must keep distance > 2^-8 from every pole.
    """
    with working_precision(sf.precision_bits):
        point = mp.mpc(x)
        clearance = mp.mpf(2) ** -8
        if abs(point - 2) <= clearance:
            raise ParameterError("evaluation point too close to the pole at 2")
        # mp.conj is exact at the precision the factors were made in.
        poles = []
        for factor in sf.factors:
            if factor.root.imag:
                poles.append((mp.conj(factor.root), mp.conj(factor.coefficient)))
            poles.append((factor.root, factor.coefficient))
        if any(abs(point - root) <= clearance for root, _ in poles):
            raise ParameterError("evaluation point too close to a root pole")
        phi = polynomials.build_phi(sf.k)
        lhs = 2 * sf.k / polynomials.eval_poly(phi, point)
        b = sf.pole_coefficient
        rhs = mp.mpf(b.numerator) / b.denominator / (2 - point)
        for root, coefficient in poles:
            rhs += coefficient / (root - point)
        return abs(lhs - rhs)
