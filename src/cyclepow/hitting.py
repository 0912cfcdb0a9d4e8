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

import numpy as np
from mpmath import mp

from . import fractionfree
from .errors import (
    ConsistencyError,
    ParameterError,
    PrecisionError,
    SimulationBudgetError,
)
from .graphs import GraphSpec, build_laplacian, check_ell, fold_order
from .recurrences import correction_ratio, correction_ratios, full_index_ratio
from .spectral import (
    _GUARD_BITS,
    DEFAULT_PRECISION_BITS,
    SpectralFactorization,
    _resolve_factorization,
    residual_tolerance,
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

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_BLOCK_DRAWS = 8  # uint32 draws from one four-word Philox4x64 block
# Walks advanced together, and uint32 draws per lockstep round across them;
# both only bound memory and per-round overhead, never the result.
_SLICE_WALKS = 4096
_WINDOW_DRAWS = 2**15


@lru_cache(maxsize=None)
def cosine_table(n: int, precision_bits: int):
    """cos(2*pi*m/n) for m = 0..n-1 at the requested precision."""
    with mp.workprec(precision_bits + _GUARD_BITS):
        return tuple(mp.cospi(mp.mpf(2 * m) / n) for m in range(n))


@lru_cache(maxsize=None)
def _eigenvalue_table(n: int, k: int, precision_bits: int):
    cosines = cosine_table(n, precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        return tuple(
            2 * k - 2 * sum(cosines[(j * r) % n] for r in range(1, k + 1))
            for j in range(n)
        )


def laplacian_eigenvalues(
    spec: GraphSpec, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """Eigenvalues 2k - 2*sum_r cos(2*pi*j*r/n) for j = 0..n-1."""
    return _eigenvalue_table(spec.n, spec.k, precision_bits)


@lru_cache(maxsize=512)
def hit_exact_all(spec: GraphSpec) -> tuple[Fraction, ...]:
    """All h(0, ell) for ell = 0..n-1 from one exact solve.

    Deleting the target row and column of the Laplacian leaves a positive
    definite integer system with right-hand side 2k; its unique solution is
    the hitting-time vector.  The system is solved in folded vertex order,
    where it is banded, and the solution is put back in vertex order.
    """
    reduced = build_laplacian(spec).delete_row_col(0)
    folded = fractionfree.solve(reduced.folded().rows, [spec.degree] * (spec.n - 1))
    solution = [Fraction(0)] * spec.n
    for position, index in enumerate(fold_order(reduced.size)):
        solution[index + 1] = folded[position]
    return tuple(solution)


def hit_exact(spec: GraphSpec, ell: int) -> Fraction:
    """Exact rational h(0, ell)."""
    check_ell(spec, ell)
    return hit_exact_all(spec)[ell]


def hit_spectral(
    spec: GraphSpec, ell: int, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """The (n-1)-term eigenvalue sum 2k * sum_j (1 - cos(2 pi j ell / n)) / lambda_j."""
    check_ell(spec, ell)
    if ell == 0:
        return mp.mpf(0)
    n = spec.n
    cosines = cosine_table(n, precision_bits)
    eigenvalues = _eigenvalue_table(n, spec.k, precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        total = mp.mpf(0)
        for j in range(1, n):
            lam = eigenvalues[j]
            if lam <= 0:
                raise ConsistencyError(
                    "nonpositive Laplacian eigenvalue; the spectrum must be "
                    "positive away from the constant mode"
                )
            total += (1 - cosines[(j * ell) % n]) / lam
        return spec.degree * total


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
        if abs(mp.im(corrections)) > residual_tolerance(bits) * max(
            1, abs(corrections)
        ):
            raise PrecisionError(
                "correction sum has a nonreal residue beyond tolerance"
            )
        return mp.mpf(quadratic.numerator) / quadratic.denominator + mp.re(
            corrections
        )


def hit_closed(
    spec: GraphSpec,
    ell: int,
    factorization: SpectralFactorization | None = None,
    form: str = "exponential",
):
    """Closed form: exact quadratic term plus the summed corrections.

    The quadratic term (B/2) * ell * (n - ell) is computed in exact rational
    arithmetic; each factor contributes n * A * correction_ratio.  The
    correction sum must be real up to the certified residual, otherwise the
    requested precision was insufficient.
    """
    check_ell(spec, ell)
    sf = _resolve_factorization(spec.k, factorization)
    ratios = (
        correction_ratio(factor, ell, spec.n, form, sf.precision_bits)
        for factor in sf.factors
    )
    return _closed_value(spec, ell, sf, ratios)


def hit_closed_all(
    spec: GraphSpec, factorization: SpectralFactorization | None = None
) -> tuple:
    """hit_closed(spec, ell, factorization) for ell = 0..n-1, bit for bit.

    Each factor's exponential-form ratios come from one correction_ratios
    table over every ell instead of three powers of rho per ell.
    """
    sf = _resolve_factorization(spec.k, factorization)
    tables = [
        correction_ratios(factor, spec.n, "exponential", sf.precision_bits)
        for factor in sf.factors
    ]
    return tuple(
        _closed_value(spec, ell, sf, (table[ell] for table in tables))
        for ell in range(spec.n)
    )


def hit_closed_literal(
    spec: GraphSpec,
    ell: int,
    factorization: SpectralFactorization | None = None,
):
    """The closed form with full-index sequence ratios instead of the
    verified correction ratios, summed as hit_closed sums them (including its
    nonreal-residue check).

    This is the uncorrected variant kept for erratum reporting; it disagrees
    with hit_exact (e.g. n=6, k=2, ell=1 gives 23/6 instead of 5) and must
    never be used for real evaluation.
    """
    check_ell(spec, ell)
    sf = _resolve_factorization(spec.k, factorization)
    ratios = (
        full_index_ratio(factor, ell, spec.n, sf.precision_bits)
        for factor in sf.factors
    )
    return _closed_value(spec, ell, sf, ratios)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product a * b, built from
    32-bit halves so that no partial product overflows uint64."""
    a_hi, a_lo = np.uint64(a >> 32), np.uint64(a & _MASK32)
    hi = b >> 32
    b_lo = b & _MASK32
    middle = a_hi * b_lo
    middle += (a_lo * b_lo) >> 32
    cross = a_lo * hi
    cross += middle & _MASK32
    hi *= a_hi
    hi += middle >> 32
    hi += cross >> 32
    return hi, np.uint64(a) * b


def _philox_blocks(
    counters: np.ndarray, seed: int, walks: np.ndarray
) -> np.ndarray:
    """Philox4x64-10 blocks for counter (c, 0, 0, 0) and key (seed, walk).

    `counters` and `walks` are uint64 arrays that broadcast against each
    other; the result has their broadcast shape plus a last axis of the four
    output words.  numpy's Philox increments its counter before making a
    block, so a fresh Philox(key=(seed, walk)) emits the blocks for c = 1,
    2, ... in order.
    """
    shape = np.broadcast_shapes(counters.shape, walks.shape)
    x0 = np.broadcast_to(counters, shape).astype(np.uint64)
    x1, x2, x3 = (np.zeros(shape, dtype=np.uint64) for _ in range(3))
    for r in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= np.uint64((seed + r * _PHILOX_W[0]) & _MASK64)
        hi0 ^= x3
        hi0 ^= walks + np.uint64((r * _PHILOX_W[1]) & _MASK64)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return np.stack((x0, x1, x2, x3), axis=-1)


def _bounded_draws(words: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Draws in [0, bound) from uint64 words, as Generator.integers makes them.

    Each word gives two uint32s, low half first, and each uint32 u gives
    (u * bound) >> 32 (Lemire's method).  numpy rejects u, and draws the next
    uint32 in its place, when the low 32 bits of u * bound fall below
    2**32 mod bound; the second array marks those draws, after which the
    stream is shifted.  Above 2**32 numpy draws from whole uint64 words, and
    then every draw is marked.  The last axis of `words` becomes twice as
    long.
    """
    halves = np.stack((words & _MASK32, words >> 32), axis=-1)
    scaled = halves.reshape(*words.shape[:-1], -1) * np.uint64(bound)
    return (scaled >> 32).view(np.int64), (scaled & _MASK32) < 2**32 % bound


def _moves(draws: np.ndarray, k: int) -> np.ndarray:
    """The step for each draw d in [0, 2k): d + 1 if d < k, else k - 1 - d."""
    return np.where(draws < k, draws + 1, k - 1 - draws)


def _walk_on(
    spec: GraphSpec,
    ell: int,
    seed: int,
    walk: int,
    blocks_used: int,
    position: int,
    allowance: int,
) -> int:
    """Steps from `position` to the first visit of ell, drawn with the walk's
    own Generator past its first `blocks_used` Philox blocks.

    This is exact whatever numpy rejects.  Stops early, returning a count
    above `allowance`, once the walk has taken more than `allowance` steps.
    """
    generator = np.random.Generator(
        np.random.Philox(
            key=np.array([seed, walk], dtype=np.uint64), counter=blocks_used
        )
    )
    taken = 0
    while taken <= allowance:
        draws = generator.integers(0, spec.degree, size=64)
        path = (position + np.cumsum(_moves(draws, spec.k))) % spec.n
        hits = np.flatnonzero(path == ell)
        if hits.size:
            return taken + int(hits[0]) + 1
        taken += 64
        position = int(path[-1])
    return taken


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
    steps taken by unfinished walks exceed `step_cap`.
    """
    check_ell(spec, ell)
    if walks < 1:
        raise ParameterError(f"walks must be >= 1, got {walks}")
    if not 0 <= seed < 2**64:
        raise ParameterError("seed must fit in 64 bits")
    if ell == 0:
        return SimulationResult(0.0, 0.0)
    n, degree = spec.n, spec.degree
    times = np.empty(walks, dtype=np.int64)
    spent = finished = 0

    def check_budget() -> None:
        if spent > step_cap:
            raise SimulationBudgetError(
                f"step cap {step_cap} exceeded after {finished} complete walks "
                f"(n={n}, k={spec.k}, ell={ell})"
            )

    for first in range(0, walks, _SLICE_WALKS):
        active = np.arange(first, min(walks, first + _SLICE_WALKS), dtype=np.uint64)
        position = np.zeros(active.size, dtype=np.int64)
        used = 0  # Philox blocks consumed by every active walk
        while active.size:
            blocks = max(1, _WINDOW_DRAWS // (_BLOCK_DRAWS * active.size))
            counters = np.arange(used + 1, used + blocks + 1, dtype=np.uint64)
            words = _philox_blocks(counters, seed, active[:, None])
            draws, rejected = _bounded_draws(words.reshape(active.size, -1), degree)
            moves = _moves(draws, spec.k)
            path = (position[:, None] + np.cumsum(moves, axis=1)) % n
            hits = path == ell
            redo = rejected.any(axis=1)
            done = hits.any(axis=1) & ~redo
            going = ~(done | redo)
            first_hits = hits[done].argmax(axis=1) + 1
            times[active[done]] = _BLOCK_DRAWS * used + first_hits
            spent += int(first_hits.sum()) + draws.shape[1] * int(going.sum())
            finished += first_hits.size
            check_budget()
            for walk, start in zip(active[redo].tolist(), position[redo].tolist()):
                taken = _walk_on(spec, ell, seed, walk, used, start, step_cap - spent)
                spent += taken
                check_budget()
                times[walk] = _BLOCK_DRAWS * used + taken
                finished += 1
            active, position = active[going], path[going, -1]
            used += blocks
    mean = float(times.mean())
    if walks == 1:
        return SimulationResult(mean, 0.0)
    stderr = float(times.std(ddof=1) / math.sqrt(walks))
    return SimulationResult(mean, stderr)
