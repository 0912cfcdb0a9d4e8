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
  * hit_simulate  -- Monte Carlo over independent walks with a counter-based
                     generator keyed by (seed, walk index), so runs are
                     reproducible regardless of execution order.

Vertex transitivity makes h between arbitrary pairs equivalent to some
h(0, ell), so only that form is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .graphs import GraphSpec, build_laplacian, fold_order
from .recurrences import correction_ratio, full_index_ratio
from .spectral import (
    DEFAULT_PRECISION_BITS,
    SpectralFactorization,
    cached_factorization,
    residual_tolerance,
)

__all__ = [
    "GENERATOR_ID",
    "HittingProfile",
    "MethodValue",
    "SimulationResult",
    "cosine_table",
    "hit_closed",
    "hit_closed_literal",
    "hit_exact",
    "hit_exact_all",
    "hit_simulate",
    "hit_spectral",
    "hitting_profile",
    "laplacian_eigenvalues",
]

_GUARD_BITS = 32

# Pinned simulation stream: one Philox4x64 instance per walk, keyed by the
# 128-bit pair (seed, walk index).  Recorded in run metadata.
GENERATOR_ID = "numpy.random.Philox4x64(key=(seed,walk))"


def _check_ell(spec: GraphSpec, ell: int) -> None:
    if not 0 <= ell < spec.n:
        raise ParameterError(f"need 0 <= ell < {spec.n}, got {ell}")


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
    _check_ell(spec, ell)
    return hit_exact_all(spec)[ell]


def hit_spectral(
    spec: GraphSpec, ell: int, precision_bits: int = DEFAULT_PRECISION_BITS
):
    """The (n-1)-term eigenvalue sum 2k * sum_j (1 - cos(2 pi j ell / n)) / lambda_j."""
    _check_ell(spec, ell)
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


def _resolve_factorization(
    spec: GraphSpec, factorization: SpectralFactorization | None
) -> SpectralFactorization:
    if factorization is None:
        return cached_factorization(spec.k, DEFAULT_PRECISION_BITS)
    if factorization.k != spec.k:
        raise ParameterError(
            f"factorization was built for k={factorization.k}, spec has k={spec.k}"
        )
    return factorization


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
    _check_ell(spec, ell)
    sf = _resolve_factorization(spec, factorization)
    bits = sf.precision_bits
    quadratic = _quadratic_term(sf, spec, ell)
    with mp.workprec(bits + _GUARD_BITS):
        corrections = mp.mpc(0)
        for factor in sf.factors:
            ratio = correction_ratio(factor, ell, spec.n, form, bits)
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


def hit_closed_literal(
    spec: GraphSpec,
    ell: int,
    factorization: SpectralFactorization | None = None,
):
    """The closed form with full-index sequence ratios instead of the
    verified correction ratios.

    This is the uncorrected variant kept for erratum reporting; it disagrees
    with hit_exact (e.g. n=6, k=2, ell=1 gives 23/6 instead of 5) and must
    never be used for real evaluation.
    """
    _check_ell(spec, ell)
    sf = _resolve_factorization(spec, factorization)
    bits = sf.precision_bits
    quadratic = _quadratic_term(sf, spec, ell)
    with mp.workprec(bits + _GUARD_BITS):
        corrections = mp.mpc(0)
        for factor in sf.factors:
            corrections += factor.coefficient * full_index_ratio(
                factor, ell, spec.n, bits
            )
        corrections *= spec.n
        return mp.mpf(quadratic.numerator) / quadratic.denominator + mp.re(
            corrections
        )


class SimulationResult(NamedTuple):
    mean: float
    stderr: float


def hit_simulate(
    spec: GraphSpec,
    ell: int,
    walks: int,
    seed: int,
    chunk: int = 64,
    step_cap: int = 10**9,
) -> SimulationResult:
    """Empirical mean and standard error of the first-passage time.

    Each walk draws from its own Philox stream keyed by (seed, walk index),
    so results are deterministic for a fixed seed and independent of batching
    or execution order.  A global cap of `step_cap` simulated steps aborts
    runaway runs with a diagnostic.
    """
    _check_ell(spec, ell)
    if walks < 1:
        raise ParameterError(f"walks must be >= 1, got {walks}")
    if not 0 <= seed < 2**64:
        raise ParameterError("seed must fit in 64 bits")
    if ell == 0:
        return SimulationResult(0.0, 0.0)
    n, k = spec.n, spec.k
    times = np.empty(walks, dtype=np.int64)
    spent = 0
    for walk in range(walks):
        generator = np.random.Generator(
            np.random.Philox(key=np.array([seed, walk], dtype=np.uint64))
        )
        position = 0
        steps = 0
        while True:
            draws = generator.integers(0, 2 * k, size=chunk)
            offsets = np.where(draws < k, draws + 1, k - 1 - draws)
            path = (position + np.cumsum(offsets)) % n
            hits = np.flatnonzero(path == ell)
            if hits.size:
                steps += int(hits[0]) + 1
                spent += int(hits[0]) + 1
                break
            steps += chunk
            spent += chunk
            position = int(path[-1])
            if spent > step_cap:
                raise SimulationBudgetError(
                    f"step cap {step_cap} exceeded after {walk} complete walks "
                    f"(n={n}, k={k}, ell={ell})"
                )
        times[walk] = steps
    mean = float(times.mean())
    if walks == 1:
        return SimulationResult(mean, 0.0)
    stderr = float(times.std(ddof=1) / math.sqrt(walks))
    return SimulationResult(mean, stderr)


@dataclass(frozen=True)
class MethodValue:
    """One computed value with its method tag and error bound (if any)."""

    method: str
    value: object
    err_bound: object | None


@dataclass(frozen=True)
class HittingProfile:
    """h(0, ell) per method plus the maximum pairwise relative deviation."""

    spec: GraphSpec
    ell: int
    values: tuple[MethodValue, ...]
    agreement: float


def hitting_profile(
    spec: GraphSpec,
    ell: int,
    methods: tuple[str, ...] = ("exact", "spectral", "closed"),
    precision_bits: int = DEFAULT_PRECISION_BITS,
    form: str = "exponential",
    walks: int = 10_000,
    seed: int = 0,
) -> HittingProfile:
    """Compute h(0, ell) by the requested methods and report their spread."""
    _check_ell(spec, ell)
    entries: list[MethodValue] = []
    bound = residual_tolerance(precision_bits)
    for method in methods:
        if method == "exact":
            entries.append(MethodValue("exact", hit_exact(spec, ell), None))
        elif method == "spectral":
            entries.append(
                MethodValue("spectral", hit_spectral(spec, ell, precision_bits), bound)
            )
        elif method == "closed":
            sf = cached_factorization(spec.k, precision_bits)
            entries.append(
                MethodValue("closed", hit_closed(spec, ell, sf, form), bound)
            )
        elif method == "simulate":
            result = hit_simulate(spec, ell, walks, seed)
            entries.append(MethodValue("simulate", result.mean, result.stderr))
        else:
            raise ParameterError(f"unknown method {method!r}")
    numbers = [float(entry.value) for entry in entries]
    agreement = 0.0
    for i in range(len(numbers)):
        for j in range(i + 1, len(numbers)):
            scale = max(1.0, abs(numbers[i]), abs(numbers[j]))
            agreement = max(agreement, abs(numbers[i] - numbers[j]) / scale)
    return HittingProfile(spec, ell, tuple(entries), agreement)
