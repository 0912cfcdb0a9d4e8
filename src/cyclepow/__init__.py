"""Hitting times, resistances, and tree counts on cycle power graphs.

The distance-k power of the N-cycle connects every pair of vertices at cyclic
distance 1..k.  This package computes, for any valid (N, k):

  * average hitting times h(0, ell) of the simple random walk, by an exact
    rational solve, a spectral eigenvalue sum, a partial-fraction closed form
    with recurrence-sequence corrections, and Monte Carlo simulation;
  * effective resistances, spanning-tree counts (three routes), two-component
    spanning-forest counts, and tree counts of vertex-identified graphs;
  * a verification harness that cross-checks every method against the exact
    oracles.

All exact quantities are arbitrary-precision integers or rationals; all
analytic quantities carry a stated binary precision with certified residuals.
"""

from .arboreal import (
    ArborealCounts,
    arboreal_counts,
    forests,
    nearest_integer,
    resistance,
    tau_contracted,
    tau_det,
    tau_eigen,
    tau_product,
)
from .errors import (
    ConsistencyError,
    CyclepowError,
    DegeneracyError,
    ParameterError,
    PrecisionError,
    SimulationBudgetError,
)
from .graphs import GraphSpec, IntMatrix, build_laplacian, contract_vertices
from .hitting import (
    GENERATOR_ID,
    SimulationResult,
    hit_closed,
    hit_closed_literal,
    hit_exact,
    hit_exact_all,
    hit_simulate,
    hit_spectral,
    laplacian_eigenvalues,
)
from .polynomials import (
    IntPolynomial,
    basis_term,
    build_phi,
    build_psi,
    derivative,
    eval_poly,
)
from .recurrences import (
    RecurrenceSpec,
    correction_ratio,
    full_index_ratio,
    full_index_spec,
    half_index_spec,
    term_by_binet,
    term_by_recurrence,
)
from .spectral import (
    DEFAULT_PRECISION_BITS,
    FactorData,
    SpectralFactorization,
    cached_factorization,
    check_decomposition,
    conjugate_pairs,
    find_roots,
    inner_root,
    partial_fractions,
    residual_tolerance,
    separation_tolerance,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "ArborealCounts",
    "CheckResult",
    "ConsistencyError",
    "CyclepowError",
    "DEFAULT_PRECISION_BITS",
    "DegeneracyError",
    "FactorData",
    "GENERATOR_ID",
    "GraphSpec",
    "IntMatrix",
    "IntPolynomial",
    "ParameterError",
    "PrecisionError",
    "RecurrenceSpec",
    "SimulationBudgetError",
    "SimulationResult",
    "SpectralFactorization",
    "arboreal_counts",
    "basis_term",
    "build_laplacian",
    "build_phi",
    "build_psi",
    "cached_factorization",
    "check_decomposition",
    "conjugate_pairs",
    "contract_vertices",
    "correction_ratio",
    "derivative",
    "eval_poly",
    "find_roots",
    "forests",
    "full_index_ratio",
    "full_index_spec",
    "half_index_spec",
    "hit_closed",
    "hit_closed_literal",
    "hit_exact",
    "hit_exact_all",
    "hit_simulate",
    "hit_spectral",
    "inner_root",
    "laplacian_eigenvalues",
    "nearest_integer",
    "partial_fractions",
    "residual_tolerance",
    "resistance",
    "run_verification",
    "separation_tolerance",
    "tau_contracted",
    "tau_det",
    "tau_eigen",
    "tau_product",
    "term_by_binet",
    "term_by_recurrence",
]
