"""Roots of psi_k, their inner roots, and the partial-fraction data.

The rational function 2k / phi_k(x) splits over the simple poles of phi_k:

    2k / phi_k(x) = B / (2 - x) + sum_a A_a / (gamma_a - x),

where gamma_1..gamma_{k-1} are the roots of psi_k, B = 2k / psi_k(2) =
12 / ((k+1)(2k+1)) exactly, and A_a = -2k / ((2 - gamma_a) * psi_k'(gamma_a)).
Each gamma lies off the real interval [-2, 2] (the spectrum arc), so the
quadratic rho^2 - gamma*rho + 1 = 0 has exactly one root with |rho| < 1; that
inner root drives all the geometric corrections downstream.

Roots are located all at once by mpmath's Durand-Kerner iteration at a low
fixed precision, then polished by Newton iteration at the working precision,
with residuals certified against the 2^(-precision_bits/2) convention used
package-wide.  psi_k has integer coefficients, so only the real roots and
those in the upper half plane are polished: a real root is polished from a
real start and stays exactly real, and each lower root is the exact
conjugate of its upper partner.  mpmath rounds complex operations
symmetrically, so the inner root and coefficient of a lower root would come
out exact conjugates of its partner's as well, and so would the correction
ratios built from them, in mpmath or in fixed point (see recurrences).  So
partial_fractions keeps one factor per real root and one per conjugate pair,
the upper root standing for both: a pair contributes twice the real part of
the upper factor's term to a real sum, and its conjugate term where a
complex one is needed.  Distinctness is verified numerically per k rather
than assumed.  working_bits is the one working precision of every analytic
value; no other module names the guard bits.  The fixed-point format is here
too: v * 2^F to the nearest (Gaussian) integer, ties away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .errors import (
    ConsistencyError,
    DegeneracyError,
    ParameterError,
    PrecisionError,
)
from .polynomials import IntPolynomial, build_phi, build_psi, derivative, eval_poly

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "FactorData",
    "MIN_PRECISION_BITS",
    "SpectralFactorization",
    "cached_factorization",
    "check_decomposition",
    "find_roots",
    "inner_root",
    "partial_fractions",
    "residual_tolerance",
    "separation_tolerance",
]

DEFAULT_PRECISION_BITS = 256

# The least precision any analytic route accepts.
MIN_PRECISION_BITS = 64

# Extra working bits so results are accurate at the *requested* precision.
_GUARD_BITS = 32

_NEWTON_BUDGET = 100

# The precision of the Durand-Kerner root estimates that Newton polishes.
_SEED_BITS = 64


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
    """2^(-precision_bits/2), the package-wide certified-residual bound."""
    return mp.mpf(2) ** (mp.mpf(-precision_bits) / 2)


def certified_bound(value, precision_bits: int):
    """residual_tolerance(precision_bits) * max(1, |value|), the error bound
    every analytic value is certified to and printed with, in the caller's
    working precision."""
    return residual_tolerance(precision_bits) * max(1, abs(value))


def separation_tolerance(precision_bits: int):
    """2^(-precision_bits/4), used for root separation and degeneracy guards."""
    return mp.mpf(2) ** (mp.mpf(-precision_bits) / 4)


@dataclass(frozen=True)
class FactorData:
    """One correction factor: a root of psi_k with its derived quantities.

    root         -- gamma, a root of psi_k (high-precision complex)
    inner_root   -- rho with rho + 1/rho = root and |rho| < 1
    coefficient  -- A, the partial-fraction coefficient at this pole
    residual     -- |psi_k(root)| after Newton refinement
    """

    root: object
    inner_root: object
    coefficient: object
    residual: object


@dataclass(frozen=True)
class SpectralFactorization:
    """Partial-fraction decomposition of 2k / phi_k at a stated precision.

    pole_coefficient is B = 12/((k+1)(2k+1)), kept as an exact rational so the
    quadratic term of the closed-form hitting time stays exact.  factors holds
    one factor per real root of psi_k and one per conjugate pair, in the
    order (Re, Im) of find_roots: a non-real factor has Im(root) > 0 and
    stands for its conjugate too.
    """

    k: int
    precision_bits: int
    pole_coefficient: Fraction
    factors: tuple[FactorData, ...]


def _root_estimates(psi: IntPolynomial):
    """All deg(psi) roots from mpmath's Durand-Kerner iteration (polyroots),
    run at _SEED_BITS whatever the working precision: Newton's quadratic
    convergence in _polish takes them the rest of the way.

    The roots of psi_k lie within 2.5 of the origin (checked for k <= 64),
    where log2(sum |c_i| 2.5^i) < 2 deg(psi) + 1 for 3 <= k <= 128, so
    evaluating psi near a root cancels about 2 bits per degree at most; that
    many extra bits, plus the guard bits, keep the iteration's error test
    reachable.  The iteration needs about deg(psi) + log2(_SEED_BITS) steps
    (measured for k <= 64), and twice that bounds it.
    """
    degree = psi.degree
    maxsteps = 2 * (degree + _SEED_BITS.bit_length())
    try:
        with mp.workprec(_SEED_BITS):
            return mp.polyroots(
                list(reversed(psi.coeffs)),
                maxsteps=maxsteps,
                extraprec=2 * degree + _GUARD_BITS,
            )
    except mp.NoConvergence:
        raise PrecisionError(
            f"root estimates for a degree-{degree} psi did not converge in "
            f"{maxsteps} Durand-Kerner steps; the seeding, not precision_bits, "
            "falls short at this k"
        ) from None


def _polish(psi: IntPolynomial, dpsi: IntPolynomial, z, tol, target):
    """Newton iteration from z, kept to the iterate with the least |psi|.

    Stops once |psi| <= target, or once it bounces on the rounding floor
    below tol; PrecisionError unless the least |psi| is within tol.
    """
    best = z
    best_residual = mp.inf
    for _ in range(_NEWTON_BUDGET):
        value = eval_poly(psi, z)
        residual = abs(value)
        if residual < best_residual:
            best, best_residual = z, residual
        elif best_residual <= tol:
            break  # bouncing on the rounding floor; keep the best
        if residual <= target:
            break
        slope = eval_poly(dpsi, z)
        if slope == 0:
            break
        z = z - value / slope
    if best_residual > tol:
        raise PrecisionError(
            "root refinement did not converge; retry with higher precision_bits"
        )
    return best


def find_roots(psi: IntPolynomial, precision_bits: int = DEFAULT_PRECISION_BITS):
    """All deg(psi) roots, Newton-refined until |psi(root)| is certified,
    and closed under complex conjugation by construction.

    Initial estimates come from mpmath's Durand-Kerner solver at _SEED_BITS.
    psi has integer coefficients, so its non-real roots come in conjugate
    pairs: an estimate z is real when |Im z| <= certified_bound(z,
    _SEED_BITS), upper or lower otherwise.  The real parts of the real
    estimates and the upper estimates are polished by Newton iteration
    until the residual drops below 2^(-precision_bits/2), so every real root
    has imaginary part exactly 0; each lower root is the exact conjugate of
    a polished upper root.  ConsistencyError is raised unless the reals and
    twice the uppers make deg(psi), and unless the roots are pairwise
    separated by more than 2^(-precision_bits/4).
    """
    with working_precision(precision_bits):
        degree = psi.degree
        if degree <= 0:
            return []
        tol = residual_tolerance(precision_bits)
        # Polish well past the certified bound so downstream products stay
        # clean at the full working precision; the rounding floor ends the
        # iteration early when this is unreachable.
        target = mp.mpf(2) ** -(precision_bits + _GUARD_BITS // 2)
        reals, uppers = [], []
        for estimate in map(mp.mpc, _root_estimates(psi)):
            if abs(estimate.imag) <= certified_bound(estimate, _SEED_BITS):
                reals.append(estimate)
            elif estimate.imag > 0:
                uppers.append(estimate)
        if len(reals) + 2 * len(uppers) != degree:
            raise ConsistencyError("root estimates are not closed under conjugation")
        dpsi = derivative(psi)
        roots = [_polish(psi, dpsi, mp.mpc(z.real), tol, target) for z in reals]
        for z in uppers:
            upper = _polish(psi, dpsi, z, tol, target)
            roots += [upper, mp.conj(upper)]
        roots.sort(key=lambda z: (z.real, z.imag))
        min_separation = separation_tolerance(precision_bits)
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if abs(roots[i] - roots[j]) <= min_separation:
                    raise ConsistencyError(
                        "refined roots are not numerically distinct"
                    )
    return roots


def inner_root(gamma, precision_bits: int = DEFAULT_PRECISION_BITS):
    """The root of rho^2 - gamma*rho + 1 = 0 with |rho| < 1.

    The two roots multiply to 1, so exactly one lies inside the unit circle
    unless gamma sits on the real interval [-2, 2]; landing within
    2^(-precision_bits/4) of the circle signals corrupted input.
    """
    with working_precision(precision_bits):
        g = mp.mpc(gamma)
        offset = mp.sqrt(g * g - 4)
        candidates = ((g + offset) / 2, (g - offset) / 2)
        rho = min(candidates, key=abs)
        if abs(abs(rho) - 1) <= separation_tolerance(precision_bits):
            raise DegeneracyError(
                "inner root lies on the unit circle; gamma is not a valid "
                "correction-factor root"
            )
    return rho


def partial_fractions(
    k: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> SpectralFactorization:
    """Assemble the decomposition data for 2k / phi_k: one factor per real
    root and one per conjugate pair, kept as its upper root."""
    psi = build_psi(k)
    # psi_k(2) = k(k+1)(2k+1)/6 pins B exactly; both expressions must agree.
    psi_at_2 = eval_poly(psi, 2)
    if 6 * psi_at_2 != k * (k + 1) * (2 * k + 1):
        raise ConsistencyError("psi_k(2) does not match k(k+1)(2k+1)/6")
    pole_coefficient = Fraction(2 * k, psi_at_2)

    roots = find_roots(psi, precision_bits)
    dpsi = derivative(psi)
    factors = []
    with working_precision(precision_bits):
        for gamma in (root for root in roots if root.imag >= 0):
            rho = inner_root(gamma, precision_bits)
            if abs(rho + 1 / rho - gamma) > certified_bound(gamma, precision_bits):
                raise PrecisionError("inner root does not reproduce its root")
            coefficient = -2 * k / ((2 - gamma) * eval_poly(dpsi, gamma))
            residual = abs(eval_poly(psi, gamma))
            factors.append(FactorData(gamma, rho, coefficient, residual))
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
        lhs = 2 * sf.k / eval_poly(build_phi(sf.k), point)
        b = sf.pole_coefficient
        rhs = mp.mpf(b.numerator) / b.denominator / (2 - point)
        for root, coefficient in poles:
            rhs += coefficient / (root - point)
        return abs(lhs - rhs)
