"""The benchmark's workloads: request lists built from a workload seed.

Each request is the argument list of one ``cyclepow`` CLI call.  The seed
picks each ``ell``, the ``--seed`` given to simulate, and the order of the
requests; sizes are fixed so that the work per run does not depend on the
seed.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# sweep ranges of the grid workload, shared with the row-count check.
GRID_N = (5, 30)
GRID_K = (1, 3)


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``{out}`` in args is replaced by a fresh file path.

    ``pair`` names a group of requests on the same (n, k, ell) whose values
    are checked against each other.
    """

    args: tuple[str, ...]
    pair: str | None = None

    @property
    def command(self) -> str:
        return self.args[0]

    def option(self, name: str) -> str | None:
        flag = f"--{name}"
        for i, arg in enumerate(self.args[:-1]):
            if arg == flag:
                return self.args[i + 1]
        return None


def _trees(n: int, k: int, rng: random.Random) -> Request:
    ell = rng.randrange(1, n)
    return Request(("trees", "--n", str(n), "--k", str(k), "--ell", str(ell),
                    "--format", "json"))


def _walk(n: int, k: int, ells: tuple[int, ...], rng: random.Random) -> Request:
    # The ells offered for one request have (near) equal hitting times, so the
    # simulated work does not depend on the seed's choice among them.
    return Request(("hit", "--n", str(n), "--k", str(k),
                    "--ell", str(rng.choice(ells)), "--method", "all",
                    "--walks", "6000", "--seed", str(rng.randrange(2**63)),
                    "--format", "json"))


def _analytic(n: int, k: int, bits: int, rng: random.Random) -> list[Request]:
    ell = rng.randrange(1, n)
    common = ("--n", str(n), "--k", str(k), "--ell", str(ell),
              "--precision", str(bits), "--format", "json")
    pair = f"{n}:{k}:{ell}:{bits}"
    return [
        Request(("hit", *common, "--method", "spectral"), pair),
        Request(("hit", *common, "--method", "closed", "--form", "seq"), pair),
    ]


def exact_dense(rng: random.Random) -> list[Request]:
    return [_trees(200, 3, rng), _trees(180, 2, rng), _trees(160, 6, rng)]


def walks(rng: random.Random) -> list[Request]:
    return [
        # long passages: targets near n/2
        _walk(40, 1, (19, 20, 21), rng),
        _walk(60, 4, (29, 30, 31), rng),
        # short passages: targets next to the start
        _walk(50, 2, (1, 49), rng),
        _walk(30, 3, (1, 29), rng),
    ]


def grid(rng: random.Random) -> list[Request]:
    n_range = f"{GRID_N[0]}:{GRID_N[1]}"
    k_range = f"{GRID_K[0]}:{GRID_K[1]}"
    return [
        Request(("verify",)),
        Request(("sweep", "--n-range", n_range, "--k-range", k_range,
                 "--quantity", "hit", "--out", "{out}")),
        Request(("sweep", "--n-range", n_range, "--k-range", k_range,
                 "--quantity", "forests", "--out", "{out}")),
    ]


def analytic_wide(rng: random.Random) -> list[Request]:
    return [
        *_analytic(16000, 6, 256, rng),
        *_analytic(8000, 8, 512, rng),
        *_analytic(5000, 3, 512, rng),
    ]


WORKLOADS = {
    "exact-dense": exact_dense,
    "walks": walks,
    "grid": grid,
    "analytic-wide": analytic_wide,
}


def build(name: str, seed: int) -> list[Request]:
    """The request list of workload ``name`` for ``seed``, in run order."""
    rng = random.Random(f"{name}:{seed}")
    requests = WORKLOADS[name](rng)
    rng.shuffle(requests)
    return requests
