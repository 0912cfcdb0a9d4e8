"""Fraction-free integer elimination of symmetric positive-definite band
matrices: exact determinants, linear solves and principal minors, all read
from one factorization.

Every matrix the package eliminates is a Laplacian with at least one vertex
deleted, so symmetric positive definite, and no other is accepted.  One-step
Bareiss elimination (Math. Comp. 22, 1968) keeps every intermediate entry an
exact integer -- entry (i, j) after col steps is the leading col x col minor
bordered by row i and column j -- so there is no rational blow-up and no
rounding ever.

A matrix arrives as band rows: row i holds columns i-b..i+b, zero off the
matrix, so the half-width b is the row length's.  The rows are checked once
to be symmetric; after that only the upper half is read.  Pivot col is the
leading (col+1) x (col+1) minor, positive for every col exactly when the
matrix is positive definite (Sylvester's criterion), so the pivots are taken
in order with no search, swap or sign, and a pivot <= 0 rejects the input.
Without pivoting nothing fills outside the band, and a bordered minor of a
symmetric matrix is symmetric in (i, j), so the upper triangle of the active
block carries everything: the pivot row also serves as the pivot column.  A
column with only zeros above the active rows is untouched: its bordered
minors are the original entries times the last pivot, as is every entry of
a row that enters the block.  An n x n matrix costs about n * b(b+1)/2
integer updates; each division is exact by Sylvester's identity and still
checked.

The factor is every upper row U(i, i..i+b), pivots P_i = U(i, i) first and
P_-1 = 1: O(n * b) integers of O(n) bits, which a bare determinant keeps
too.  _factor memoises the last one on the band rows' content, lists and
tuples alike, so a determinant, a solve and an adjugate of the same matrix
eliminate once; one entry covers every caller that asks again (a tree count,
then the hitting-time solve and the forest count of the same graph), and a
matrix that fails its checks raises on every call.

A solve then carries its right-hand side r through the same steps, in O(n * b):
at column c, for d = 1..b,

    r(c+d) = (P_c * r(c+d) - U(c, c+d) * r(c)) / P_(c-1),

and the row entering the block at c+b+1 is multiplied by P_c.
Back-substitution also stays in integers: with D the final pivot (det A),
Cramer's rule makes D * x integral, so only the returned Fractions divide.

The adjugate W = adj(A) = det A * A^-1 holds every minor with one row and
column deleted on its diagonal.  Selected inversion (Erisman & Tinney, CACM
18, 1975) sweeps W's band back from the factor U, with A = U^T diag(1 /
(P_(i-1) P_i)) U: for j = i+b down to i,

    W(i, j) = ([j == i] * det A * P_(i-1) - sum_t U(i, t) W(t, j)) / P_i,

summed over t = i+1..i+b, inside the band, reading W(t, j) as W(j, t) for
t > j.  Each numerator is P_i times an integer cofactor, so each division is
exact and still checked.  The sweep costs about one more elimination, O(n * b)
space.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from .errors import ConsistencyError

__all__ = ["adjugate_diagonal", "determinant", "solve"]


@lru_cache(maxsize=1)
def _factor(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Eliminate below the diagonal; return every upper row, upper row i
    holding columns i..i+b of the triangular factor.

    Callers pass the band rows as tuples, tuple(map(tuple, rows)), so the
    memo is keyed on their content.  Raises ConsistencyError unless the rows
    are those of a symmetric positive-definite matrix.
    """
    n = len(rows)
    width = len(rows[0])
    if width % 2 == 0 or any(len(row) != width for row in rows):
        raise ConsistencyError("band rows must all have the same odd length")
    b = width // 2
    for e in range(1, min(b, n - 1) + 1):
        if [row[b + e] for row in rows[: n - e]] != [row[b - e] for row in rows[e:]]:
            raise ConsistencyError("band rows are not symmetric")
    # Active row col+d: columns col+d..col+b.
    window = [
        [int(x) for x in rows[d][b : 2 * b + 1 - d]] for d in range(min(n, b + 1))
    ]
    upper = []
    prev = 1
    for col in range(n):
        base = window.pop(0)
        pivot = base[0]
        if pivot <= 0:
            raise ConsistencyError("matrix is not positive definite")
        for d, row in enumerate(window, 1):
            lead = base[d]  # entry (col+d, col), mirrored from the pivot row
            updated = []
            for x, y in zip(row, base[d:]):
                quotient, remainder = divmod(pivot * x - lead * y, prev)
                if remainder:
                    raise ConsistencyError("fraction-free step left a remainder")
                updated.append(quotient)
            updated.append(int(rows[col + d][2 * b + 1 - d]) * pivot)
            window[d - 1] = updated
        if col + b + 1 < n:
            window.append([int(rows[col + b + 1][b]) * pivot])
        upper.append(tuple(base))
        prev = pivot
    return tuple(upper)


def _carry(upper: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int]:
    """The right-hand side after the elimination steps that built upper.

    Raises ConsistencyError when a division leaves a remainder, which an
    exact factor never does.
    """
    n, b = len(upper), len(upper[0]) - 1
    right = [int(x) for x in rhs]
    prev = 1
    for c, u in enumerate(upper):
        pivot, x = u[0], right[c]
        for d in range(1, min(b, n - 1 - c) + 1):
            quotient, remainder = divmod(pivot * right[c + d] - u[d] * x, prev)
            if remainder:
                raise ConsistencyError("right-hand-side step left a remainder")
            right[c + d] = quotient
        if c + b + 1 < n:
            right[c + b + 1] *= pivot
        prev = pivot
    return right


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a symmetric positive-definite integer band
    matrix (1 for the empty one).

    Raises ConsistencyError when the matrix is not symmetric positive
    definite.
    """
    if not rows:
        return 1
    return _factor(tuple(map(tuple, rows)))[-1][0]


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """Exact solution of a symmetric positive-definite integer band system
    A x = b.

    Raises ConsistencyError when the matrix is not symmetric positive
    definite.
    """
    n = len(rows)
    if len(rhs) != n:
        raise ConsistencyError("right-hand side length does not match the matrix")
    if n == 0:
        return []
    upper = _factor(tuple(map(tuple, rows)))
    right = _carry(upper, rhs)
    scale = upper[-1][0]
    scaled = [0] * n  # scale * x, integral by Cramer's rule
    for i in range(n - 1, -1, -1):
        row = upper[i]
        acc = scale * right[i] - sum(map(mul, row[1:], scaled[i + 1 : i + len(row)]))
        scaled[i], remainder = divmod(acc, row[0])
        if remainder:
            raise ConsistencyError("back-substitution left a remainder")
    return [Fraction(value, scale) for value in scaled]


def adjugate_diagonal(rows: Sequence[Sequence[int]]) -> list[int]:
    """For every p, the exact determinant of a symmetric positive-definite
    integer band matrix with row and column p deleted ([] for the empty one).
    Raises ConsistencyError when the matrix is not symmetric positive definite."""
    n = len(rows)
    if n == 0:
        return []
    upper = _factor(tuple(map(tuple, rows)))
    det, b = upper[-1][0], len(upper[0]) - 1
    band = [[]] * n + [[0] * (b + 1)] * b  # band[i] is W(i, i..i+b), zero past n
    for i in range(n - 1, -1, -1):
        u = upper[i]
        band[i] = row = [0] * (b + 1)
        for e in range(b, -1, -1):
            column = [
                band[i + s][e - s] if s <= e else band[i + e][s - e]
                for s in range(1, b + 1)
            ]
            first = 0 if e else det * (upper[i - 1][0] if i else 1)
            row[e], remainder = divmod(first - sum(map(mul, u[1:], column)), u[0])
            if remainder:
                raise ConsistencyError("adjugate sweep left a remainder")
    return [row[0] for row in band[:n]]
