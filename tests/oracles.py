"""Independent reference implementations used only by the tests.

These deliberately avoid the library's own code paths: spanning trees and
forests are counted by brute-force subset enumeration, linear systems are
solved by plain Gaussian elimination over Fractions, and Fibonacci numbers
come from the integer recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def gauss_solve(rows, rhs) -> list[Fraction]:
    """Plain fraction-arithmetic Gaussian elimination with partial pivoting.

    Raises ZeroDivisionError when the matrix is singular.
    """
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inverse = 1 / aug[col][col]
        aug[col] = [x * inverse for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def permutation_determinant(rows) -> int:
    """Leibniz-formula determinant; fine up to ~7x7."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    from itertools import permutations

    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # parity via cycle decomposition
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def edges_from_laplacian(rows) -> list[tuple[int, int]]:
    """Multigraph edge list (with multiplicity) from an integer Laplacian."""
    n = len(rows)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.extend([(i, j)] * (-rows[i][j]))
    return edges


class _DisjointSet:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def count_spanning_trees(n_vertices: int, edges) -> int:
    """Spanning trees of a multigraph by subset enumeration."""
    count = 0
    for subset in combinations(range(len(edges)), n_vertices - 1):
        dsu = _DisjointSet(n_vertices)
        if all(dsu.union(*edges[i]) for i in subset):
            count += 1
    return count


def count_separating_forests(n_vertices: int, edges, u: int, v: int) -> int:
    """Two-component spanning forests with u and v in different components."""
    count = 0
    for subset in combinations(range(len(edges)), n_vertices - 2):
        dsu = _DisjointSet(n_vertices)
        if not all(dsu.union(*edges[i]) for i in subset):
            continue
        # n-2 edges and no cycle means exactly two components
        if dsu.find(u) != dsu.find(v):
            count += 1
    return count
