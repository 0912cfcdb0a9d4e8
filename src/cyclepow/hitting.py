"""Average hitting times h(0, ell) by four independent methods.

The walker sits at a vertex of the cycle power graph and moves to one of the
2k neighbours (cyclic distance 1..k either way) with probability 1/(2k).
h(0, ell) is the expected number of steps to first reach ell from 0.

Methods, graded against one another:

  * hit_exact     -- ground truth: first-step analysis gives h(0)=0 and
                     (L h)(i) = 2k for i != 0, a nonsingular integer system
                     solved exactly by banded fraction-free elimination;
  * hit_spectral  -- the eigenvalue sum over the Fourier modes of the
                     circulant Laplacian, in fixed-point integers built
                     from one transcendental call per cosine table and
                     rounded to the working precision once;
  * hit_closed    -- exact quadratic term plus one geometric correction per
                     real root of psi_k and per conjugate pair, real by
                     construction, added up in fixed-point integers and
                     rounded to the working precision once;
  * hit_simulate  -- Monte Carlo over independent walks, walk w drawing from
                     numpy's Philox4x64 stream keyed by (seed, w); the
                     streams are computed for many walks at once (Philox
                     blocks and bounded draws, rejections included, in numpy
                     uint64 arithmetic), so runs are reproducible regardless
                     of batching.

Vertex transitivity makes h between arbitrary pairs equivalent to some
h(0, ell), so only that form is exposed.  The analytic methods compute in
spectral.working_precision, which checks the floor at ell = 0 as well, on
spectral's fixed-point integers; arboreal.tau_eigen reads fixed_eigenvalues.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import add, neg
from typing import TYPE_CHECKING, NamedTuple

from mpmath import mp

from . import fractionfree, recurrences
from .errors import ConsistencyError, ParameterError, SimulationBudgetError
from .graphs import GraphSpec, build_laplacian, check_ell
from .spectral import (
    DEFAULT_PRECISION_BITS,
    SpectralFactorization,
    cached_factorization,
    gaussian_product,
    round_divide,
    to_fixed,
    working_bits,
    working_precision,
)

if TYPE_CHECKING:
    from fractions import Fraction

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
]

# Pinned simulation stream: walk w takes its steps from
# Generator(Philox(key=(seed, w))).integers(0, 2k), numpy's Philox4x64 keyed
# by the 128-bit pair (seed, walk index).  hit_simulate computes these same
# draws for many walks in lockstep.  Recorded in run metadata.
GENERATOR_ID = "numpy.random.Philox4x64(key=(seed,walk))"


# The cached functions below take positional arguments only, with no
# defaults, so each value has exactly one cache key.  verify, sweep and each
# CLI request read a graph's eigenvalue table and exact solve only while that
# graph is the latest, so fixed_eigenvalues and hit_exact_all keep one graph
# each (one table at n = 16000, k = 6 and 256 bits holds about 1.3 MB).  The
# two cosine memos keep the 64 most recent (n, bits), because each n's table
# serves every k and verify's outer loop is over k: at its default bounds it
# builds 22 fixed-point and 20 rounded cosine tables, where memos of one
# table would build 60 and 38.
def fraction_bits(n: int, precision_bits: int) -> int:
    """F, the fraction bits of the fixed-point tables of an n-vertex graph:
    the working precision p = precision_bits + guard bits, plus 4 * bitlen(n).

    Error bound.  One mp.cospi_sinpi(2/n) at F + 8 bits, rounded to a
    Gaussian integer, gives u = a + ib within 0.74 units of 2^F * e^(2 pi
    i/n) (a unit is 2^-F).  Each rotation z -> round(z * u / 2^F) adds that
    0.74 and at most 0.71 of rounding to the error it carries, so the m-th
    point is within 1.5 m units of 2^F * e^(2 pi i m/n): every C_m with m <=
    n/2 is within n units of 2^F cos(2 pi m/n), and the mirrors are exact
    copies.  Lambda_j sums 2k of them, so it is within 2kn units, while
    lambda_j >= 4 sin^2(pi/n) >= 16/n^2 for 1 <= j < n.  Its relative error
    is at most k n^3 / 8 * 2^-F, below 2^(bitlen(k) + 3 bitlen(n) - 3 - F),
    and since 2k < n, bitlen(k) < bitlen(n): F = p + 4 bitlen(n) keeps every
    lambda_j within 2^-(p+4) relatively.  So is each numerator 2^F - C_m
    with m != 0, as 1 - cos(2 pi m/n) >= 8/n^2, and the floors of the
    spectral sum cost at most n units against h >= 1: the fixed-point sum is
    within about 2^-(p+2) of h before its one rounding to p bits.
    """
    return working_bits(precision_bits) + 4 * n.bit_length()


@lru_cache(maxsize=64)
def _fixed_cosines(n: int, precision_bits: int, /) -> tuple[int, ...]:
    """C_m, cos(2*pi*m/n) * 2^F to within n units (see fraction_bits), for
    m = 0..n-1, with C_0 = 2^F exactly.

    (1, 0) is rotated by the one transcendental value of the table,
    mp.cospi_sinpi(2/n), with spectral's rounded Gaussian product, through
    one octant when 4 | n (C_m, and sin as C_(n/4-m)), m <= n/4 at other
    even n and m <= (n-1)/2 at odd n.  The rest is copied exactly:
    C_(n/2-m) = -C_m for even n, then C_(n-m) = C_m.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    bits = fraction_bits(n, precision_bits)
    with mp.workprec(bits + 8):
        turn = to_fixed(mp.mpc(*mp.cospi_sinpi(mp.mpf(2) / n)), bits)
    octant = n % 4 == 0
    last = n // 8 if octant else n // 2 if n % 2 else n // 4
    half = [0] * (n // 2 + 1)
    point = (1 << bits, 0)
    for m in range(last + 1):
        if octant:
            half[n // 4 - m] = point[1]
        half[m] = point[0]
        point = gaussian_product(point, turn, bits)
    if n % 2 == 0:
        half[n // 4 + 1 :] = map(neg, half[n // 2 - n // 4 - 1 :: -1])
    return tuple(half + half[(n - 1) // 2 : 0 : -1])


@lru_cache(maxsize=1)
def fixed_eigenvalues(spec: GraphSpec, precision_bits: int, /) -> tuple[int, ...]:
    """Lambda_j = 2k * 2^F - 2 * sum_r C_(jr mod n) for j = 0..n-1, each an
    exact integer sum of the fixed-point cosines, for j <= n/2; the cosines'
    exact mirror makes Lambda_(n-j) the same sum, so it is copied.

    The sums are built a column r at a time: C_(jr mod n) for j = 0..n/2 is
    every r-th entry of r laps of the table, gathered and added in C
    iterators without copying the table.  Integer addition is exact, so the
    order of the additions does not matter.
    """
    n, size = spec.n, spec.n // 2 + 1
    cosines = _fixed_cosines(n, precision_bits)
    sums = repeat(0, size)
    for r in range(1, spec.k + 1):
        laps = chain.from_iterable(repeat(cosines, r))
        sums = map(add, sums, islice(laps, 0, r * size, r))
    top = spec.degree * cosines[0]
    half = [top - 2 * total for total in sums]
    return tuple(half + half[(n - 1) // 2 : 0 : -1])


@lru_cache(maxsize=64)
def cosine_table(n: int, precision_bits: int, /):
    """cos(2*pi*m/n) for m = 0..n-1 at the requested precision: each entry
    is one rounding of the fixed-point C_m that the spectral sum reads, so
    the table mirrors exactly, c_(n-m) = c_m and, for even n, c_(n/2-m) =
    -c_m, and costs one transcendental call."""
    bits = fraction_bits(n, precision_bits)
    with working_precision(precision_bits):
        return tuple(mp.mpf((c, -bits)) for c in _fixed_cosines(n, precision_bits))


@lru_cache(maxsize=1)
def hit_exact_all(spec: GraphSpec, /) -> tuple[Fraction, ...]:
    """All h(0, ell) for ell = 0..n-1 from one exact solve.

    Deleting the target row and column of the Laplacian leaves a positive
    definite integer system with right-hand side 2k; its unique solution is
    the hitting-time vector.  The system is solved on band rows in fold
    order, and the solution is put back in vertex order.
    """
    from fractions import Fraction

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
    t_(n/2)), the middle term present for even n only.  Each t_j is the
    integer floor((2^F - C_(j ell)) * 2^F / Lambda_j) of the fixed-point
    tables, and the integer sum is rounded to an mpf once, within the bound
    derived at fraction_bits.
    """
    check_ell(spec, ell)
    with working_precision(precision_bits):
        if ell == 0:
            return mp.mpf(0)
        n = spec.n
        cosines = _fixed_cosines(n, precision_bits)
        eigenvalues = fixed_eigenvalues(spec, precision_bits)
        if min(eigenvalues[1 : n // 2 + 1]) <= 0:
            raise ConsistencyError(
                "nonpositive Laplacian eigenvalue; the spectrum must be "
                "positive away from the constant mode"
            )
        one, bits = cosines[0], fraction_bits(n, precision_bits)
        terms = [
            ((one - cosines[(j * ell) % n]) << bits) // eigenvalues[j]
            for j in range(1, n // 2 + 1)
        ]
        middle = terms.pop() if n % 2 == 0 else 0
        return mp.mpf((spec.degree * (2 * sum(terms) + middle), -bits))


def _closed_bits(sf: SpectralFactorization, n: int) -> int:
    """F, the fraction bits of the closed-form sum on n vertices: the most
    that recurrences.ratio_bits asks for any factor's ratios (at least the
    working precision p), plus bitlen(k).

    Error bound.  Each factor's term N * A * ratio is within 2^-(p+8) of its
    value for the factor's rho and A, and rounding A to 2^-F adds at most
    N |ratio| 0.71 * 2^-F, below a tenth of that.  The extra bitlen(k) bits
    divide both by at least k, so the real parts of the k - 1 roots' terms,
    a pair counted twice, add up to within 2^-(p+7) of their sum.  The
    products are exact at 2F fraction bits, the quadratic term is rounded
    there, and h(0, ell) >= 1 for ell != 0, so the closed value is within
    2^-(p+7) relatively before its one rounding to p bits.
    """
    bits = [
        recurrences.ratio_bits(factor, n, sf.precision_bits) for factor in sf.factors
    ]
    return max([working_bits(sf.precision_bits), *bits]) + sf.k.bit_length()


def _closed_values(spec: GraphSpec, ells, precision_bits: int, form: str) -> list:
    """The closed value of each ell asked for, with each factor's ratios in
    the given recurrences form on Gaussian integers at F = _closed_bits
    fraction bits: one fixed_ratios table over the ells in the exponential
    form, each correction_ratio converted once in the others.

    A * 2^F is rounded to a Gaussian integer once per factor and doubled
    for a non-real factor, whose conjugate adds the same real part; the
    real parts of the products, times n, and the quadratic term (B/2) ell
    (n - ell) are added up as integers at 2F fraction bits and rounded to an
    mpf once, within the bound derived at _closed_bits.
    """
    sf = cached_factorization(spec.k, precision_bits)
    bits = _closed_bits(sf, spec.n)
    ratio = recurrences.correction_ratio
    weighted, tables = [], []
    for factor in sf.factors:
        real, imag = to_fixed(factor.coefficient, bits)
        weight = 2 if factor.root.imag else 1
        weighted.append((weight * real, weight * imag))
        if form == "exponential":
            tables.append(recurrences.fixed_ratios(factor, ells, spec.n, bits))
        else:
            ratios = (ratio(factor, ell, spec.n, form, precision_bits) for ell in ells)
            tables.append([to_fixed(value, bits) for value in ratios])
    values = []
    with working_precision(precision_bits):
        for index, ell in enumerate(ells):
            quadratic = sf.pole_coefficient / 2 * ell * (spec.n - ell)
            total = round_divide(quadratic.numerator << 2 * bits, quadratic.denominator)
            for (a, b), table in zip(weighted, tables):
                x, y = table[index]
                total += spec.n * (a * x - b * y)
            values.append(mp.mpf((total, -2 * bits)))
    return values


def hit_closed(
    spec: GraphSpec,
    ell: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    form: str = "exponential",
):
    """Closed form: exact quadratic term plus the summed corrections.

    The quadratic term (B/2) * ell * (n - ell) is an exact rational; each
    real root of psi_k contributes n * A * correction_ratio, and each
    conjugate pair twice the real part of its upper root's term: the two
    corrections of a pair are exact conjugates, so the correction sum is
    real by construction and is added up from real parts alone.  The sum
    is taken on fixed-point integers and rounded once (_closed_values); the
    exponential form's ratios are fixed-point integers already
    (recurrences.fixed_ratios), the sequence form's are converted.  Only
    those two forms are taken: the full-index form is hit_closed_literal's.
    """
    check_ell(spec, ell)
    if form not in ("exponential", "sequence"):
        raise ParameterError(f"unknown form {form!r}")
    return _closed_values(spec, (ell,), precision_bits, form)[0]


def hit_closed_all(
    spec: GraphSpec, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple:
    """hit_closed(spec, ell, precision_bits) for ell = 0..n-1, bit for bit.

    Each factor's exponential-form ratios come from one fixed-point table
    over ell <= n/2, and h(0, n - ell) is h(0, ell): the ratios of ell and
    n - ell are the same integers.
    """
    half = _closed_values(spec, range(spec.n // 2 + 1), precision_bits, "exponential")
    return tuple(half + half[1 : (spec.n + 1) // 2][::-1])


def hit_closed_literal(
    spec: GraphSpec, ell: int, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """The closed form with full-index sequence ratios instead of the
    verified correction ratios, summed as hit_closed sums them: full-index
    ratios of a conjugate pair are exact conjugates too, so each pair is
    again twice the real part of its upper root's term.

    This is the uncorrected variant kept for erratum reporting; it disagrees
    with hit_exact (e.g. n=6, k=2, ell=1 gives 23/6 instead of 5) and must
    never be used for real evaluation.
    """
    check_ell(spec, ell)
    return _closed_values(spec, (ell,), precision_bits, "full-index")[0]


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
    window of Philox blocks for all of them at once, never more blocks than
    each walk has already used, and each walk retires at its first visit to
    ell.  A draw numpy would reject (about 1e-9 per draw at k = 3) moves
    nothing and is not counted as a step, since numpy draws the next value
    in its place, so every walk time equals the one-walk-at-a-time
    computation.  SimulationBudgetError is raised once the finished walk
    times plus the steps taken by unfinished walks exceed `step_cap`, and
    before any walk when walks > step_cap: every walk to ell != 0 takes at
    least one step.  ParameterError is raised, before any walk, when
    n + 2**15 k reaches 2**63, where a window's positions would overflow
    int64; h(0, ell) >= 2n/3 there, over 10**14 steps per walk.
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

    if spec.n + _philox.WINDOW_DRAWS * spec.k >= 2**63:
        raise ParameterError(
            f"n={spec.n}, k={spec.k} is too large to simulate: "
            f"n + {_philox.WINDOW_DRAWS} k must be below 2**63"
        )
    times = _philox.walk_times(spec, ell, walks, seed, step_cap)
    mean = float(times.mean())
    if walks == 1:
        return SimulationResult(mean, 0.0)
    stderr = float(times.std(ddof=1) / math.sqrt(walks))
    return SimulationResult(mean, stderr)
