"""Cycle power graphs, their Laplacians, and two-vertex contractions.

The distance-k power of the N-cycle has vertex set Z_N and an edge between
every pair of vertices at cyclic distance 1..k.  With N >= 2k+1 the graph is
simple and 2k-regular, which is the regime every formula in this package
assumes, so smaller N is rejected outright.  N = 2k+1 (the complete graph) is
allowed and makes a handy degenerate test case.

Matrices are dense tuples of Python ints, built in O(n^2) and converted to
int only where they enter through the IntMatrix constructor.  The Laplacian is
a circulant band, and fold_order renumbers the vertices of a reduced or
contracted Laplacian so that the band closes up around the wrap-around: the
result has lower and upper bandwidth at most 2k, and the fraction-free
elimination downstream costs O(n * k^2) integer operations instead of O(n^3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

__all__ = ["GraphSpec", "IntMatrix", "build_laplacian", "contract_vertices"]


@dataclass(frozen=True)
class GraphSpec:
    """Parameters (n, k) of the distance-k power of the n-cycle."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.k, int):
            raise ParameterError("n and k must be integers")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.n < 3:
            raise ParameterError(f"n must be >= 3, got {self.n}")
        if self.n < 2 * self.k + 1:
            raise ParameterError(
                "need n >= 2k+1 so the graph is simple and 2k-regular "
                f"(got n={self.n}, k={self.k})"
            )

    @property
    def degree(self) -> int:
        return 2 * self.k

    @property
    def num_edges(self) -> int:
        return self.n * self.k


def check_ell(spec: GraphSpec, ell: int, lowest: int = 0) -> None:
    """Reject a target vertex ell outside lowest..n-1."""
    if not lowest <= ell < spec.n:
        raise ParameterError(f"need {lowest} <= ell < {spec.n}, got {ell}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense square matrix of arbitrary-precision integers.

    The constructor converts every entry with int() and checks the shape;
    matrices derived inside this module are built from rows that are already
    tuples of ints and skip that pass.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        if any(len(row) != len(rows) for row in rows):
            raise ParameterError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of_int_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap square rows of ints as they are, without the constructor's
        conversion pass."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self.rows[i][j]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def is_symmetric(self) -> bool:
        rows = self.rows
        return all(
            rows[i][j] == rows[j][i]
            for i in range(len(rows))
            for j in range(i)
        )

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.size))

    def total(self) -> int:
        return sum(sum(row) for row in self.rows)

    def folded(self) -> "IntMatrix":
        """Rows and columns taken in fold_order(size)."""
        order = fold_order(self.size)
        rows = self.rows
        return IntMatrix._of_int_rows(
            tuple(tuple(map(rows[i].__getitem__, order)) for i in order)
        )

    def delete_row_col(self, index: int) -> "IntMatrix":
        """The principal submatrix with one row and its column removed."""
        if not 0 <= index < self.size:
            raise ParameterError(f"index {index} out of range for size {self.size}")
        return IntMatrix._of_int_rows(
            tuple(
                row[:index] + row[index + 1 :]
                for i, row in enumerate(self.rows)
                if i != index
            )
        )


def fold_order(size: int) -> tuple[int, ...]:
    """Indices from both ends inward: 0, size-1, 1, size-2, ...

    With vertex 0 deleted, index i of a reduced Laplacian is vertex i+1, so
    the folded order visits 1, n-1, 2, n-2, ...: vertices at cyclic distance
    r <= k end up at most 2k positions apart, across the wrap-around as well.
    """
    return tuple(i // 2 if i % 2 == 0 else size - 1 - i // 2 for i in range(size))


def build_laplacian(spec: GraphSpec) -> IntMatrix:
    """Circulant Laplacian of the cycle power graph: diagonal 2k, -1 at
    offsets +-1..+-k mod n.

    Under n >= 2k+1 the 2k offsets are pairwise distinct mod n, so every
    off-diagonal entry is 0 or -1 and each row sums to zero.
    """
    n, k = spec.n, spec.k
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 2 * k
        for r in range(1, k + 1):
            row[(i + r) % n] -= 1
            row[(i - r) % n] -= 1
        rows.append(tuple(row))
    return IntMatrix._of_int_rows(tuple(rows))


def contract_vertices(lap: IntMatrix, u: int, v: int) -> IntMatrix:
    """Laplacian of the multigraph obtained by identifying vertices u and v.

    Row v is folded into row u and column v into column u, which absorbs any
    u-v coupling into the merged diagonal; row sums stay zero and parallel
    edges keep their multiplicity (no simplification to a simple graph).  The
    merged vertex occupies u's slot and v's row/column disappears, so the
    result is (size-1) x (size-1).
    """
    n = lap.size
    if u == v:
        raise ParameterError("cannot contract a vertex with itself")
    if not (0 <= u < n and 0 <= v < n):
        raise ParameterError(f"vertex indices ({u}, {v}) out of range for size {n}")
    work = [list(row) for row in lap.rows]
    for j in range(n):
        work[u][j] += work[v][j]
    for i in range(n):
        work[i][u] += work[i][v]
    keep = [i for i in range(n) if i != v]
    return IntMatrix._of_int_rows(
        tuple(tuple(work[i][j] for j in keep) for i in keep)
    )
