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

Importing the package executes none of its eight layer modules.  Each is
registered in ``sys.modules`` through ``importlib.util.LazyLoader`` and
executes on its first attribute read, and the names in ``__all__`` resolve
through the module ``__getattr__``.  So a command executes only the layers it
reads: importing ``cyclepow.cli`` runs ``graphs`` and ``spectral``, ``hit
--method spectral`` adds only ``hitting``, ``--method exact`` adds
``fractionfree`` too, and ``--method closed`` ``polynomials`` and
``recurrences``; ``trees`` runs all but ``recurrences`` and ``verify``.
Python 3.11's ``LazyLoader`` takes no lock: a thread that reads a
layer while another thread's first read is still executing it can find the
layer half built.  The CLI is single-threaded; a threaded caller should read
each layer it needs before starting its threads.
"""

import importlib.util
import sys

from .errors import (
    ConsistencyError,
    CyclepowError,
    DegeneracyError,
    ParameterError,
    PrecisionError,
    SimulationBudgetError,
)

__version__ = "0.1.0"

# The layer that defines each name of __all__ outside `errors`.
_LAYER_OF = {
    "GraphSpec": "graphs",
    "build_phi": "polynomials",
    "build_psi": "polynomials",
    "cached_factorization": "spectral",
    "GENERATOR_ID": "hitting",
    "hit_closed": "hitting",
    "hit_closed_literal": "hitting",
    "hit_exact": "hitting",
    "hit_simulate": "hitting",
    "hit_spectral": "hitting",
    "arboreal_counts": "arboreal",
    "forests": "arboreal",
    "resistance": "arboreal",
    "tau_contracted": "arboreal",
    "tau_det": "arboreal",
    "tau_eigen": "arboreal",
    "tau_product": "arboreal",
    "run_verification": "verify",
}

__all__ = sorted(
    [
        "ConsistencyError",
        "CyclepowError",
        "DegeneracyError",
        "ParameterError",
        "PrecisionError",
        "SimulationBudgetError",
        *_LAYER_OF,
    ]
)


def _lazy(layer: str):
    """The layer module, in sys.modules but not executed until read."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


graphs = _lazy("graphs")
polynomials = _lazy("polynomials")
fractionfree = _lazy("fractionfree")
spectral = _lazy("spectral")
recurrences = _lazy("recurrences")
hitting = _lazy("hitting")
arboreal = _lazy("arboreal")
verify = _lazy("verify")


def __getattr__(name: str):
    """A name of __all__ from its layer, which this read may execute."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    """The package's own names plus those __getattr__ serves."""
    return sorted(set(globals()) | set(__all__))
