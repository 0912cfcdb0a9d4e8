"""Average hitting times h(0, ell) by four independent methods.

The walker sits at a vertex of the cycle power graph and moves to one of the
2k neighbours (cyclic distance 1..k either way) with probability 1/(2k).
h(0, ell) is the expected number of steps to first reach ell from 0.

Methods, graded against one another:

  * hit_exact     -- ground truth: first-step analysis gives h(0)=0 and
                     (L h)(i) = 2k for i != 0, a nonsingular integer system
                     solved exactly by banded fraction-free elimination;
  * hit_spectral  -- the eigenvalue sum over the Fourier modes of the
                     circulant Laplacian, in high-precision arithmetic;
  * hit_closed    -- exact quadratic term plus finitely many geometric
                     corrections from the partial-fraction data;
  * hit_simulate  -- Monte Carlo over independent walks, walk w drawing from
                     numpy's Philox4x64 stream keyed by (seed, w); the
                     streams are computed for many walks at once (Philox
                     blocks and bounded draws in numpy uint64 arithmetic),
                     so runs are reproducible regardless of batching.

Vertex transitivity makes h between arbitrary pairs equivalent to some
h(0, ell), so only that form is exposed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp

from . import fractionfree
from .errors import (
    ConsistencyError,
    ParameterError,
    PrecisionError,
    SimulationBudgetError,
)
from .graphs import GraphSpec, build_laplacian, check_ell
from .recurrences import correction_ratio, correction_ratios, full_index_ratio
from .spectral import (
    _GUARD_BITS,
    DEFAULT_PRECISION_BITS,
    SpectralFactorization,
    _check_precision_bits,
    cached_factorization,
    certified_bound,
)

__all__ = [
    "GENERATOR_ID",
    "SimulationResult",
    "cosine_table",
    "hit_closed",
    "hit_closed_all",
    "hit_closed_literal",
    "hit_exact",
    "hit_exact_all",
    "hit_simulate",
    "hit_spectral",
    "laplacian_eigenvalues",
]

# Pinned simulation stream: walk w takes its steps from
# Generator(Philox(key=(seed, w))).integers(0, 2k), numpy's Philox4x64 keyed
# by the 128-bit pair (seed, walk index).  hit_simulate computes these same
# draws for many walks in lockstep.  Recorded in run metadata.
GENERATOR_ID = "numpy.random.Philox4x64(key=(seed,walk))"


# The three cached functions below take positional arguments only, with no
# defaults, so each value has exactly one cache key.  The two tables are kept
# for the 64 most recent (n, bits) and (graph, bits): a default verify run
# reads 22 cosine and 60 eigenvalue tables, and sweep --quantity tau reads
# each graph's tables once.
@lru_cache(maxsize=64)
def cosine_table(n: int, precision_bits: int, /):
    """cos(2*pi*m/n) for m = 0..n-1 at the requested precision.

    Only one octant is evaluated when 4 | n: mp.cospi_sinpi at m <= n/8
    gives c_m and, as sin(2*pi*m/n), c_(n/4-m).  Other even n evaluate
    mp.cospi at m <= n/4, odd n at m <= (n-1)/2.  The rest is copied exactly:
    c_(n/2-m) = -c_m for even n, then c_(n-m) = c_m.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    _check_precision_bits(precision_bits)
    half = [None] * (n // 2 + 1)
    with mp.workprec(precision_bits + _GUARD_BITS):
        if n % 4 == 0:
            quarter = n // 4
            for m in range(n // 8 + 1):
                cos, sin = mp.cospi_sinpi(mp.mpf(2 * m) / n)
                half[quarter - m] = sin
                half[m] = cos
        else:
            for m in range((n // 2 if n % 2 else n // 4) + 1):
                half[m] = mp.cospi(mp.mpf(2 * m) / n)
        if n % 2 == 0:
            for m in range(n // 4 + 1, n // 2 + 1):
                half[m] = -half[n // 2 - m]
    return tuple(half + [half[n - m] for m in range(n // 2 + 1, n)])


@lru_cache(maxsize=64)
def laplacian_eigenvalues(spec: GraphSpec, precision_bits: int, /):
    """Eigenvalues lambda_j = 2k - 2*sum_r cos(2*pi*j*r/n) for j = 0..n-1.

    The k cosines c_(jr mod n) are added by mp.fsum for j <= n/2 only; the
    cosine table's exact mirror makes lambda_(n-j) the same sum, so it is
    copied.
    """
    n, k = spec.n, spec.k
    cosines = cosine_table(n, precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        half = [
            2 * k - 2 * mp.fsum(cosines[(j * r) % n] for r in range(1, k + 1))
            for j in range(n // 2 + 1)
        ]
    return tuple(half + [half[n - m] for m in range(n // 2 + 1, n)])


@lru_cache(maxsize=512)
def hit_exact_all(spec: GraphSpec, /) -> tuple[Fraction, ...]:
    """All h(0, ell) for ell = 0..n-1 from one exact solve.

    Deleting the target row and column of the Laplacian leaves a positive
    definite integer system with right-hand side 2k; its unique solution is
    the hitting-time vector.  The system is solved on band rows in fold
    order, and the solution is put back in vertex order.
    """
    order, rows = build_laplacian(spec, (0,))
    values = fractionfree.solve(rows, [spec.degree] * len(rows))
    solution = [Fraction(0)] * spec.n
    for vertex, value in zip(order, values):
        solution[vertex] = value
    return tuple(solution)


def hit_exact(spec: GraphSpec, ell: int) -> Fraction:
    """Exact rational h(0, ell)."""
    check_ell(spec, ell)
    return hit_exact_all(spec)[ell]


def hit_spectral(
    spec: GraphSpec, ell: int, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """The eigenvalue sum 2k * sum_j (1 - cos(2 pi j ell / n)) / lambda_j.

    Term j equals term n - j, so the sum is 2k * (2 * sum_{1<=j<n/2} t_j +
    t_(n/2)), the middle term present for even n only; the t_j with j < n/2
    are added by mp.fsum.
    """
    check_ell(spec, ell)
    _check_precision_bits(precision_bits)
    if ell == 0:
        return mp.mpf(0)
    n = spec.n
    cosines = cosine_table(n, precision_bits)
    eigenvalues = laplacian_eigenvalues(spec, precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        terms = []
        for j in range(1, n // 2 + 1):
            lam = eigenvalues[j]
            if lam <= 0:
                raise ConsistencyError(
                    "nonpositive Laplacian eigenvalue; the spectrum must be "
                    "positive away from the constant mode"
                )
            terms.append((1 - cosines[(j * ell) % n]) / lam)
        middle = terms.pop() if n % 2 == 0 else 0
        return spec.degree * (2 * mp.fsum(terms) + middle)


def _quadratic_term(sf: SpectralFactorization, spec: GraphSpec, ell: int) -> Fraction:
    return Fraction(sf.pole_coefficient, 2) * ell * (spec.n - ell)


def _closed_value(spec: GraphSpec, ell: int, sf: SpectralFactorization, ratios):
    """hit_closed's value at ell from `ratios`, the correction ratio of each
    factor of `sf` in order."""
    bits = sf.precision_bits
    quadratic = _quadratic_term(sf, spec, ell)
    with mp.workprec(bits + _GUARD_BITS):
        corrections = mp.mpc(0)
        for factor, ratio in zip(sf.factors, ratios):
            corrections += factor.coefficient * ratio
        corrections *= spec.n
        if abs(mp.im(corrections)) > certified_bound(corrections, bits):
            raise PrecisionError(
                "correction sum has a nonreal residue beyond tolerance"
            )
        return mp.mpf(quadratic.numerator) / quadratic.denominator + mp.re(
            corrections
        )


def hit_closed(
    spec: GraphSpec,
    ell: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    form: str = "exponential",
):
    """Closed form: exact quadratic term plus the summed corrections.

    The quadratic term (B/2) * ell * (n - ell) is computed in exact rational
    arithmetic; each factor of cached_factorization(k, precision_bits)
    contributes n * A * correction_ratio.  The correction sum must be real up
    to the certified residual, otherwise the requested precision was
    insufficient.
    """
    check_ell(spec, ell)
    if form not in ("exponential", "sequence"):
        raise ParameterError(f"unknown form {form!r}")
    sf = cached_factorization(spec.k, precision_bits)
    ratios = (
        correction_ratio(factor, ell, spec.n, form, precision_bits)
        for factor in sf.factors
    )
    return _closed_value(spec, ell, sf, ratios)


def hit_closed_all(
    spec: GraphSpec, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple:
    """hit_closed(spec, ell, precision_bits) for ell = 0..n-1, bit for bit.

    Each factor's exponential-form ratios come from one correction_ratios
    table over every ell instead of three powers of rho per ell.
    """
    sf = cached_factorization(spec.k, precision_bits)
    tables = [
        correction_ratios(factor, spec.n, "exponential", precision_bits)
        for factor in sf.factors
    ]
    return tuple(
        _closed_value(spec, ell, sf, (table[ell] for table in tables))
        for ell in range(spec.n)
    )


def hit_closed_literal(
    spec: GraphSpec, ell: int, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """The closed form with full-index sequence ratios instead of the
    verified correction ratios, summed as hit_closed sums them (including its
    nonreal-residue check).

    This is the uncorrected variant kept for erratum reporting; it disagrees
    with hit_exact (e.g. n=6, k=2, ell=1 gives 23/6 instead of 5) and must
    never be used for real evaluation.
    """
    check_ell(spec, ell)
    sf = cached_factorization(spec.k, precision_bits)
    ratios = (
        full_index_ratio(factor, ell, spec.n, precision_bits)
        for factor in sf.factors
    )
    return _closed_value(spec, ell, sf, ratios)


class SimulationResult(NamedTuple):
    mean: float
    stderr: float


def hit_simulate(
    spec: GraphSpec,
    ell: int,
    walks: int,
    seed: int,
    step_cap: int = 10**9,
) -> SimulationResult:
    """Empirical mean and standard error of the first-passage time.

    Walk w takes its steps from Generator(Philox(key=(seed, w))).integers(0,
    2k) (see GENERATOR_ID), so results are deterministic for a fixed seed.
    The walks of a slice advance in lockstep: every round computes the next
    window of Philox blocks for all of them at once, and each walk retires at
    its first visit to ell.  A walk whose window holds a draw numpy would
    reject (about 1e-9 per draw at k = 3) finishes on its own Generator
    instead, so every walk time equals the one-walk-at-a-time computation.
    SimulationBudgetError is raised once the finished walk times plus the
    steps taken by unfinished walks exceed `step_cap`, and before any walk
    when walks > step_cap: every walk to ell != 0 takes at least one step.
    """
    check_ell(spec, ell)
    if walks < 1:
        raise ParameterError(f"walks must be >= 1, got {walks}")
    if not 0 <= seed < 2**64:
        raise ParameterError("seed must fit in 64 bits")
    if ell == 0:
        return SimulationResult(0.0, 0.0)
    if walks > step_cap:
        raise SimulationBudgetError(
            f"step cap {step_cap} is below {walks} walks of at least one step "
            f"each (n={spec.n}, k={spec.k}, ell={ell})"
        )
    from . import _philox  # loads numpy, which only simulation needs

    times = _philox.walk_times(spec, ell, walks, seed, step_cap)
    mean = float(times.mean())
    if walks == 1:
        return SimulationResult(mean, 0.0)
    stderr = float(times.std(ddof=1) / math.sqrt(walks))
    return SimulationResult(mean, stderr)
