"""Walk times for hitting.hit_simulate, in numpy uint64 arithmetic.

The Philox4x64-10 blocks and Generator.integers bounded draws of many walks
are computed at once, rejected draws included, so no walk needs a Generator
of its own.  Three things keep the uint64 array passes per draw down.  Every
block starts from counter (c, 0, 0, 0) and key (seed, walk), so round 0
multiplies only the counters and round 1 multiplies the seed once, leaving
17 of the 20 full-size 64x64 -> 128-bit products.  Up to 2**32 the uint32
halves of the words are a little-endian view, and rejections are only
looked for when numpy can reject a draw of the bound.  A lockstep round
draws no more blocks than each walk has already used, so the draws a walk
makes after its hit stay below its steps plus one block.  This is the
package's only numpy code; hit_simulate imports the module on its first
call, so no other route loads numpy.
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


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product a * b, built from
    32-bit halves so that no partial product overflows uint64."""
    a_hi, a_lo = a >> 32, a & _MASK32
    hi = b >> 32
    middle = b & _MASK32
    cross = hi * a_lo
    low = middle * a_lo
    low >>= 32
    middle *= a_hi
    middle += low
    np.bitwise_and(middle, _MASK32, out=low)
    cross += low
    hi *= a_hi
    middle >>= 32
    hi += middle
    cross >>= 32
    hi += cross
    np.multiply(b, a, out=low)
    return hi, low


def _philox_blocks(
    counters: np.ndarray, seed: int, walks: np.ndarray
) -> np.ndarray:
    """Philox4x64-10 blocks for counter (c, 0, 0, 0) and key (seed, walk).

    `counters` and `walks` are uint64 arrays that broadcast against each
    other; the result has their broadcast shape plus a last axis of the four
    output words.  numpy's Philox increments its counter before making a
    block, so a fresh Philox(key=(seed, walk)) emits the blocks for c = 1,
    2, ... in order.

    A round maps (x0, x1, x2, x3) to (hi(M1 x2) ^ x1 ^ key0, lo(M1 x2),
    hi(M0 x0) ^ x3 ^ key1, lo(M0 x0)) and then adds the Weyl increments to
    the key.  From the start state only the counter varies in x, so round 0
    multiplies the counters alone (M1 * 0 = 0) and round 1 multiplies the
    seed once, as a Python int; round 1 leaves x3 a scalar, which round 2
    takes in with its key.  That leaves 17 of the 20 full-size products.
    """
    shape = np.broadcast_shapes(counters.shape, walks.shape)
    m0, m1 = (np.uint64(m) for m in _PHILOX_M)
    rounds = range(_PHILOX_ROUNDS)
    key0 = [np.uint64((seed + r * _PHILOX_W[0]) & _MASK64) for r in rounds]
    key1 = [walks + np.uint64(r * _PHILOX_W[1] & _MASK64) for r in rounds]
    # Round 0: x = (c, 0, 0, 0) gives (seed, 0, hi(M0 c) ^ walk, lo(M0 c)).
    hi, x3 = _mulhilo(m0, np.array(counters, dtype=np.uint64, ndmin=1))
    x2 = hi ^ key1[0]
    # Round 1: x0 = seed and x1 = 0, so hi(M0 x0) and lo(M0 x0) are ints.
    seed_hi, seed_lo = divmod(_PHILOX_M[0] * seed, 2**64)
    x0, x1 = _mulhilo(m1, x2)
    x0 ^= key0[1]
    x3 ^= np.uint64(seed_hi)
    np.bitwise_xor(x3, key1[1], out=x2)
    key1[2] ^= np.uint64(seed_lo)  # round 2's x3
    words = np.empty((*shape, 4), dtype=np.uint64)
    for r in range(2, _PHILOX_ROUNDS):
        last = r + 1 == _PHILOX_ROUNDS
        hi0, lo0 = _mulhilo(m0, x0)
        hi1, lo1 = _mulhilo(m1, x2)
        x0 = np.bitwise_xor(hi1, x1, out=words[..., 0] if last else hi1)
        x0 ^= key0[r]
        x2 = np.bitwise_xor(hi0, key1[r], out=words[..., 2] if last else hi0)
        if r > 2:
            x2 ^= x3
        x1, x3 = lo1, lo0
    words[..., 1] = x1
    words[..., 3] = x3
    return words


def _rejection_threshold(bound: int) -> int:
    """numpy rejects a draw in [0, bound) whose low product word falls below
    this: 2**32 mod bound up to 2**32, 2**64 mod bound above."""
    return (2**32 if bound <= 2**32 else 2**64) % bound


def _bounded_draws(words: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Draws in [0, bound) from uint64 words, as Generator.integers makes them
    (Lemire's method), and a mask of the draws numpy rejects.

    Up to 2**32 each word gives two uint32s u, low half first, and u gives
    (u * bound) >> 32; numpy rejects u when the low 32 bits of u * bound fall
    below 2**32 mod bound, and the last axis of `words` becomes twice as
    long.  The halves are a view of the words in little-endian order, which
    is low half first on any host.  Above 2**32 each word w gives the high
    word of the 128-bit w * bound, rejected when its low word falls below
    2**64 mod bound.  numpy draws the next value in a rejected draw's place,
    so the accepted draws, in order, are the stream.  When the threshold is
    0 no draw is rejected, and the mask is a read-only broadcast of False.
    """
    threshold = _rejection_threshold(bound)
    if bound > 2**32:
        draws, low = _mulhilo(np.uint64(bound), words)
    else:
        draws = words.astype("<u8", copy=False).view("<u4") * np.uint64(bound)
        low = draws.astype(np.uint32) if threshold else None
        draws >>= 32
    if threshold:
        rejected = low < threshold
    else:
        rejected = np.broadcast_to(np.False_, draws.shape)
    return draws.view(np.int64), rejected


def walk_times(
    spec: GraphSpec, ell: int, walks: int, seed: int, step_cap: int
) -> np.ndarray:
    """First-passage times from 0 to ell != 0 of walks 0..walks-1, with the
    step cap that hit_simulate describes.

    Every round draws the next window of Philox blocks for all active walks
    of a slice: at most WINDOW_DRAWS draws across them, and never more blocks
    than each has already used, so a walk that has used U blocks without a
    hit (over 8U steps) draws at most max(1, U) more; the draws made stay
    below twice the steps plus 8 per walk.  A rejected draw moves nothing
    and is not a step, so each walk adds up its own steps; graphs whose
    bound numpy never rejects skip that bookkeeping.  Positions stay below
    n + WINDOW_DRAWS * k in magnitude, which hit_simulate keeps below 2**63.
    """
    n, k, degree = spec.n, spec.k, spec.degree
    rejects = _rejection_threshold(degree) != 0
    times = np.zeros(walks, dtype=np.int64)
    spent = finished = 0
    for first in range(0, walks, _SLICE_WALKS):
        active = np.arange(first, min(walks, first + _SLICE_WALKS), dtype=np.uint64)
        position = np.zeros((active.size, 1), dtype=np.int64)
        used = 0  # Philox blocks consumed by every active walk
        while active.size:
            blocks = max(1, min(WINDOW_DRAWS // (_BLOCK_DRAWS * active.size), used))
            counters = np.arange(used + 1, used + blocks + 1, dtype=np.uint64)
            words = _philox_blocks(counters, seed, active[:, None])
            path, rejected = _bounded_draws(words.reshape(active.size, -1), degree)
            # Each draw d becomes its step, d + 1 if d < k, else k - 1 - d:
            # with e = d - k and s = -1 if e < 0, else 0, the step is
            # ~(e ^ s) - (k + 1) s.
            path -= k
            sign = path >> 63
            path ^= sign
            np.invert(path, out=path)
            sign *= k + 1
            path -= sign
            if rejects:
                skipped = np.flatnonzero(rejected)
                path.reshape(-1)[skipped] = 0
                rows, columns = np.divmod(skipped, path.shape[1])
            np.cumsum(path, axis=1, out=path)
            path += position
            # path mod n: numpy divides by a scalar with a multiply and a
            # shift, but its remainder does a hardware division per element.
            wraps = path // n
            wraps *= n
            path -= wraps
            hits = path == ell
            first_hit = hits.argmax(axis=1)
            done = hits[np.arange(active.size), first_hit]
            # Draws up to each first hit, which is never a rejected draw, or
            # the whole window; then the rejected draws among them.
            taken = np.where(done, first_hit + 1, path.shape[1])
            if rejects:
                taken -= np.bincount(
                    rows[columns < taken[rows]], minlength=active.size
                )
            times[active] += taken
            spent += int(taken.sum())
            finished += int(done.sum())
            if spent > step_cap:
                raise SimulationBudgetError(
                    f"step cap {step_cap} exceeded after {finished} complete "
                    f"walks (n={n}, k={k}, ell={ell})"
                )
            going = ~done
            active, position = active[going], path[going, -1:]
            used += blocks
    return times
