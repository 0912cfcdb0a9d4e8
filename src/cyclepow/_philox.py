"""Walk times for hitting.hit_simulate, in numpy uint64 arithmetic.

The Philox4x64-10 blocks and Generator.integers bounded draws of many walks
are computed at once.  This is the package's only numpy code; hit_simulate
imports the module on its first call, so no other route loads numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationBudgetError
from .graphs import GraphSpec

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


def walk_times(
    spec: GraphSpec, ell: int, walks: int, seed: int, step_cap: int
) -> np.ndarray:
    """First-passage times from 0 to ell != 0 of walks 0..walks-1, with the
    step cap and the fallback for rejected draws that hit_simulate describes."""
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
    return times
