"""Cycle power graphs and their Laplacians as band rows.

The distance-k power of the N-cycle has vertex set Z_N and an edge between
every pair of vertices at cyclic distance 1..k.  With N >= 2k+1 the graph is
simple and 2k-regular, which is the regime every formula in this package
assumes, so smaller N is rejected outright.  N = 2k+1 (the complete graph) is
allowed and makes a handy degenerate test case.

The Laplacian is a circulant band.  build_laplacian takes the vertices in
fold order (0, N-1, 1, N-2, ...), where vertices at cyclic distance r <= k
sit at most 2k positions apart across the wrap-around as well, and writes
each row straight into band storage of half-width 2k: O(N * k) integers,
never an N x N matrix.  Deleting vertices only draws the rest closer, so
the reduced Laplacian (vertex 0 deleted) is the same rows with vertex 0
skipped.  So is the reduced Laplacian of the graph with 0 and ell
identified: deleting its merged vertex leaves the Laplacian with 0 and ell
deleted.
"""

from __future__ import annotations

from .errors import ConsistencyError, ParameterError

__all__ = ["GraphSpec", "build_laplacian"]


class GraphSpec:
    """Parameters (n, k) of the distance-k power of the n-cycle.

    Immutable, and equal and hashed by (n, k) among GraphSpecs, so that it
    keys the package's lru caches.
    """

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int) -> None:
        if not isinstance(n, int) or not isinstance(k, int):
            raise ParameterError("n and k must be integers")
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if n < 2 * k + 1:
            raise ParameterError(
                "need n >= 2k+1 so the graph is simple and 2k-regular "
                f"(got n={n}, k={k})"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of GraphSpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of GraphSpec")

    def __repr__(self) -> str:
        return f"GraphSpec(n={self.n!r}, k={self.k!r})"

    def __eq__(self, other):
        if other.__class__ is not GraphSpec:
            return NotImplemented
        return self.n == other.n and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.n, self.k))

    @property
    def degree(self) -> int:
        return 2 * self.k

    @property
    def num_edges(self) -> int:
        return self.n * self.k


def check_ell(spec: GraphSpec, ell: int, lowest: int = 0) -> None:
    """Reject a target vertex ell that is not an integer in lowest..n-1."""
    if not isinstance(ell, int):
        raise ParameterError(f"ell must be an integer, got {ell!r}")
    if not lowest <= ell < spec.n:
        raise ParameterError(f"need {lowest} <= ell < {spec.n}, got {ell}")


def fold_order(size: int) -> tuple[int, ...]:
    """Indices from both ends inward: 0, size-1, 1, size-2, ...

    Index v lands at position 2v or 2(size-1-v)+1, so indices at cyclic
    distance r <= k end up at most 2k positions apart, across the
    wrap-around as well.
    """
    return tuple(i // 2 if i % 2 == 0 else size - 1 - i // 2 for i in range(size))


def build_laplacian(
    spec: GraphSpec, removed: tuple[int, ...] = ()
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The Laplacian with the `removed` vertices' rows and columns deleted,
    as (vertex order, band rows).

    The kept vertices are taken in fold order.  Row i of the result belongs
    to vertex order[i] and holds columns i-b..i+b, b = 2k, zero-padded off
    the matrix: the diagonal 2k at index b, and -1 at index b + j - i for
    every kept neighbour in position j.  Under n >= 2k+1 the 2k neighbours
    are distinct, so the full Laplacian's rows sum to zero.
    """
    n, k = spec.n, spec.k
    for vertex in removed:
        if not 0 <= vertex < n:
            raise ParameterError(f"vertex {vertex} out of range for n={n}")
    order = tuple(v for v in fold_order(n) if v not in removed)
    position = {v: i for i, v in enumerate(order)}
    b = 2 * k
    rows = []
    for i, v in enumerate(order):
        row = [0] * (2 * b + 1)
        row[b] = 2 * k
        for r in range(1, k + 1):
            for u in ((v + r) % n, (v - r) % n):
                j = position.get(u)
                if j is None:
                    continue
                if not -b <= j - i <= b:
                    raise ConsistencyError(
                        f"neighbour {u} of vertex {v} lies {j - i} positions "
                        f"off the diagonal, outside the band of half-width {b}"
                    )
                row[b + j - i] -= 1
        rows.append(tuple(row))
    return order, tuple(rows)
