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

The package API below is what the README, the CLI and the scripts use;
helpers (band Laplacians, polynomials, recurrence sequences, root finding)
are imported from their modules, for example
``cyclepow.graphs.build_laplacian``.
"""

from .arboreal import (
    arboreal_counts,
    forests,
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
from .graphs import GraphSpec
from .hitting import (
    GENERATOR_ID,
    hit_closed,
    hit_closed_literal,
    hit_exact,
    hit_simulate,
    hit_spectral,
)
from .polynomials import build_phi, build_psi
from .spectral import cached_factorization
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "CyclepowError",
    "DegeneracyError",
    "GENERATOR_ID",
    "GraphSpec",
    "ParameterError",
    "PrecisionError",
    "SimulationBudgetError",
    "arboreal_counts",
    "build_phi",
    "build_psi",
    "cached_factorization",
    "forests",
    "hit_closed",
    "hit_closed_literal",
    "hit_exact",
    "hit_simulate",
    "hit_spectral",
    "resistance",
    "run_verification",
    "tau_contracted",
    "tau_det",
    "tau_eigen",
    "tau_product",
]
