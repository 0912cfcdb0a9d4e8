"""Walk times for hitting.hit_simulate, in numpy uint64 arithmetic.

The Philox4x64-10 blocks and Generator.integers bounded draws of many walks
are computed at once, rejected draws included, so no walk needs a Generator
of its own.  This is the package's only numpy code; hit_simulate imports the
module on its first call, so no other route loads numpy.
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
# both only bound memory and per-round overhead, never the result.  A walk
# moves at most WINDOW_DRAWS times in a round, which hit_simulate's size
# limit allows for.
_SLICE_WALKS = 4096
WINDOW_DRAWS = 2**15


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
    """Draws in [0, bound) from uint64 words, as Generator.integers makes them
    (Lemire's method), and a mask of the draws numpy rejects.

    Up to 2**32 each word gives two uint32s u, low half first, and u gives
    (u * bound) >> 32; numpy rejects u when the low 32 bits of u * bound fall
    below 2**32 mod bound, and the last axis of `words` becomes twice as
    long.  Above 2**32 each word w gives the high word of the 128-bit
    w * bound, rejected when its low word falls below 2**64 mod bound.
    numpy draws the next value in a rejected draw's place, so the accepted
    draws, in order, are the stream.
    """
    if bound > 2**32:
        high, low = _mulhilo(bound, words)
        return high.view(np.int64), low < 2**64 % bound
    halves = np.stack((words & _MASK32, words >> 32), axis=-1)
    scaled = halves.reshape(*words.shape[:-1], -1) * np.uint64(bound)
    return (scaled >> 32).view(np.int64), (scaled & _MASK32) < 2**32 % bound


def _moves(draws: np.ndarray, k: int) -> np.ndarray:
    """The step for each draw d in [0, 2k): d + 1 if d < k, else k - 1 - d."""
    return np.where(draws < k, draws + 1, k - 1 - draws)


def walk_times(
    spec: GraphSpec, ell: int, walks: int, seed: int, step_cap: int
) -> np.ndarray:
    """First-passage times from 0 to ell != 0 of walks 0..walks-1, with the
    step cap that hit_simulate describes.

    Every round draws the next window of Philox blocks for all active walks
    of a slice.  A rejected draw moves nothing and is not a step, so each
    walk adds up its own steps.  Positions stay below n + WINDOW_DRAWS * k in
    magnitude, which hit_simulate keeps below 2**63.
    """
    n, degree = spec.n, spec.degree
    times = np.zeros(walks, dtype=np.int64)
    spent = finished = 0
    for first in range(0, walks, _SLICE_WALKS):
        active = np.arange(first, min(walks, first + _SLICE_WALKS), dtype=np.uint64)
        position = np.zeros(active.size, dtype=np.int64)
        used = 0  # Philox blocks consumed by every active walk
        while active.size:
            blocks = max(1, WINDOW_DRAWS // (_BLOCK_DRAWS * active.size))
            counters = np.arange(used + 1, used + blocks + 1, dtype=np.uint64)
            words = _philox_blocks(counters, seed, active[:, None])
            draws, rejected = _bounded_draws(words.reshape(active.size, -1), degree)
            moves = _moves(draws, spec.k)
            moves[rejected] = 0
            path = (position[:, None] + np.cumsum(moves, axis=1)) % n
            hits = path == ell
            done = hits.any(axis=1)
            # Draws up to each first hit, which is never a rejected draw, or
            # the whole window; then the rejected draws among them.
            taken = np.where(done, hits.argmax(axis=1) + 1, draws.shape[1])
            rows, columns = np.nonzero(rejected)
            taken -= np.bincount(rows[columns < taken[rows]], minlength=active.size)
            times[active] += taken
            spent += int(taken.sum())
            finished += int(done.sum())
            if spent > step_cap:
                raise SimulationBudgetError(
                    f"step cap {step_cap} exceeded after {finished} complete "
                    f"walks (n={n}, k={spec.k}, ell={ell})"
                )
            going = ~done
            active, position = active[going], path[going, -1]
            used += blocks
    return times
