"""Roots of psi_k, their inner roots, and the partial-fraction data.

The rational function 2k / phi_k(x) splits over the simple poles of phi_k:

    2k / phi_k(x) = B / (2 - x) + sum_a A_a / (gamma_a - x),

where gamma_1..gamma_{k-1} are the roots of psi_k, B = 2k / psi_k(2) =
12 / ((k+1)(2k+1)) exactly, and A_a = -2k / ((2 - gamma_a) * psi_k'(gamma_a)).
Each gamma lies off the real interval [-2, 2] (the spectrum arc), so the
quadratic rho^2 - gamma*rho + 1 = 0 has exactly one root with |rho| < 1; that
inner root drives all the geometric corrections downstream.

Roots are located all at once by mpmath's Durand-Kerner iteration at the
working precision, then polished by Newton iteration, with residuals certified
against the 2^(-precision_bits/2) convention used package-wide.  psi_k has
integer coefficients, so only the real roots and those in the upper half
plane are polished: a real root is polished from a real start and stays
exactly real, and each lower root is the exact conjugate of its upper
partner.  mpmath rounds complex operations symmetrically, so the inner roots
and coefficients of a conjugate pair come out exact conjugates as well, and
so do the correction ratios built from them.  conjugate_pairs therefore
pairs roots by exact comparison, with no tolerance.  Distinctness is
verified numerically per k rather than assumed.
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
    "conjugate_pairs",
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


def _check_precision_bits(precision_bits: int) -> None:
    if precision_bits < MIN_PRECISION_BITS:
        raise ParameterError(f"precision_bits must be >= {MIN_PRECISION_BITS}")


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
    the k-1 roots, closed under complex conjugation.
    """

    k: int
    precision_bits: int
    pole_coefficient: Fraction
    factors: tuple[FactorData, ...]


def _root_estimates(psi: IntPolynomial, precision_bits: int):
    """All deg(psi) roots from mpmath's Durand-Kerner iteration (polyroots),
    run inside the caller's working precision.

    The roots of psi_k lie within 2.5 of the origin (checked for k <= 64),
    where log2(sum |c_i| 2.5^i) < 2 deg(psi) + 1 for 3 <= k <= 128, so
    evaluating psi near a root cancels about 2 bits per degree at most; that
    many extra bits, plus the guard bits, keep the iteration's error test
    reachable.  The iteration needs about deg(psi) + log2(precision_bits)
    steps (measured for k <= 64 up to 1056 bits), and twice that bounds it.
    """
    degree = psi.degree
    maxsteps = 2 * (degree + precision_bits.bit_length())
    try:
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

    Initial estimates come from mpmath's Durand-Kerner solver at the working
    precision.  psi has integer coefficients, so its non-real roots come in
    conjugate pairs: an estimate z is real when |Im z| <= certified_bound(z,
    precision_bits), upper or lower otherwise.  The real parts of the real
    estimates and the upper estimates are polished by Newton iteration
    until the residual drops below 2^(-precision_bits/2), so every real root
    has imaginary part exactly 0; each lower root is the exact conjugate of
    a polished upper root.  ConsistencyError is raised unless the reals and
    twice the uppers make deg(psi), and unless the roots are pairwise
    separated by more than 2^(-precision_bits/4).
    """
    _check_precision_bits(precision_bits)
    degree = psi.degree
    if degree <= 0:
        return []
    with mp.workprec(precision_bits + _GUARD_BITS):
        tol = residual_tolerance(precision_bits)
        # Polish well past the certified bound so downstream products stay
        # clean at the full working precision; the rounding floor ends the
        # iteration early when this is unreachable.
        target = mp.mpf(2) ** -(precision_bits + _GUARD_BITS // 2)
        if degree == 1:
            c0, c1 = psi.coeffs
            roots = [mp.mpc(mp.mpf(-c0) / c1)]
        else:
            reals, uppers = [], []
            for estimate in map(mp.mpc, _root_estimates(psi, precision_bits)):
                if abs(estimate.imag) <= certified_bound(estimate, precision_bits):
                    reals.append(estimate)
                elif estimate.imag > 0:
                    uppers.append(estimate)
            if len(reals) + 2 * len(uppers) != degree:
                raise ConsistencyError(
                    "root estimates are not closed under conjugation"
                )
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
    with mp.workprec(precision_bits + _GUARD_BITS):
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
    """Assemble the full decomposition data for 2k / phi_k."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    psi = build_psi(k)
    # psi_k(2) = k(k+1)(2k+1)/6 pins B exactly; both expressions must agree.
    psi_at_2 = eval_poly(psi, 2)
    if 6 * psi_at_2 != k * (k + 1) * (2 * k + 1):
        raise ConsistencyError("psi_k(2) does not match k(k+1)(2k+1)/6")
    pole_coefficient = Fraction(2 * k, psi_at_2)

    roots = find_roots(psi, precision_bits)
    dpsi = derivative(psi)
    factors = []
    with mp.workprec(precision_bits + _GUARD_BITS):
        for gamma in roots:
            rho = inner_root(gamma, precision_bits)
            if abs(rho + 1 / rho - gamma) > certified_bound(gamma, precision_bits):
                raise PrecisionError("inner root does not reproduce its root")
            coefficient = -2 * k / ((2 - gamma) * eval_poly(dpsi, gamma))
            residual = abs(eval_poly(psi, gamma))
            factors.append(FactorData(gamma, rho, coefficient, residual))
    conjugate_pairs(factors)  # raises on an unpaired root
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


def conjugate_pairs(factors):
    """Split factors into (real_factors, conjugate_pairs) by exact comparison.

    find_roots makes each real root exactly real and each lower root the
    exact conjugate of an upper one.  A factor is real when the imaginary
    part of its root is 0; each pair is (upper, lower), upper.root having
    positive imaginary part and lower.root being its exact conjugate.
    ConsistencyError is raised on any root without such a partner.
    """
    reals = [factor for factor in factors if factor.root.imag == 0]
    # mp.conj and unary minus round to the ambient precision
    lowers = {
        (factor.root.real, mp.fneg(factor.root.imag, exact=True)): factor
        for factor in factors
        if factor.root.imag < 0
    }
    pairs = [
        (upper, lowers.pop((upper.root.real, upper.root.imag), None))
        for upper in factors
        if upper.root.imag > 0
    ]
    if len(reals) + 2 * len(pairs) != len(factors) or any(
        lower is None for _, lower in pairs
    ):
        raise ConsistencyError("a non-real root has no exact conjugate partner")
    return reals, pairs


def check_decomposition(sf: SpectralFactorization, x):
    """|2k/phi_k(x) - B/(2-x) - sum A_a/(gamma_a - x)| at the stated precision.

    Both sides are evaluated independently: the left through the integer
    polynomial phi_k, the right through the stored decomposition.  The point
    must keep distance > 2^-8 from every pole.
    """
    with mp.workprec(sf.precision_bits + _GUARD_BITS):
        point = mp.mpc(x)
        clearance = mp.mpf(2) ** -8
        if abs(point - 2) <= clearance:
            raise ParameterError("evaluation point too close to the pole at 2")
        for factor in sf.factors:
            if abs(point - factor.root) <= clearance:
                raise ParameterError("evaluation point too close to a root pole")
        lhs = 2 * sf.k / eval_poly(build_phi(sf.k), point)
        b = sf.pole_coefficient
        rhs = mp.mpf(b.numerator) / b.denominator / (2 - point)
        for factor in sf.factors:
            rhs += factor.coefficient / (factor.root - point)
        return abs(lhs - rhs)
