"""Fraction-free integer elimination on band rows: exact determinants and
linear solves.

One-step (Bareiss-style) elimination keeps every intermediate entry an exact
integer -- each is a minor of the input -- so there is no rational blow-up
mid-run and no rounding ever.

A matrix arrives as band rows: row i holds columns i-b..i+b, zero off the
matrix, so the half-width b is the row length's.  As in LAPACK's gbtrf,
partial pivoting among the b rows below the diagonal widens the upper reach
to 2b, so each working row is its band widened by b for fill.  The rows that
can still be pivots all start at the current pivot column, so a row swap
keeps every row's column offset and each step shifts them all by one.  An
n x n matrix costs O(n * b^2) integer operations and O(n * b) storage.  The
values computed are those of dense Bareiss elimination with the same pivots,
so each fraction-free division is still exact and still checked.

Back-substitution also stays in integers: with D the final pivot (+-det A),
Cramer's rule makes D * x integral, so only the returned Fractions divide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ConsistencyError

__all__ = ["determinant", "solve"]


def _forward(
    rows: Sequence[Sequence[int]], rhs: Sequence[int] | None
) -> tuple[int, list[list[int]]] | None:
    """Eliminate below the diagonal; return (row-swap sign, upper rows).

    Upper row i holds columns i..i+2b of the triangular factor, then its
    right-hand side.  Without a right-hand side only the last upper row is
    kept, since a determinant needs no more.  Returns None if some pivot
    column is entirely zero (singular matrix).  Every division below is
    exact by construction; a nonzero remainder means the input was not
    integral.
    """
    n = len(rows)
    width = len(rows[0])
    if width % 2 == 0 or any(len(row) != width for row in rows):
        raise ConsistencyError("band rows must all have the same odd length")
    b = width // 2
    window: list[list[int]] = []  # rows col..col+b, from column col on
    upper = []
    sign = 1
    prev = 1
    for col in range(n):
        # Rows whose band reaches column col enter the window.  Dense
        # elimination rescales every row below the pivot by pivot/prev at
        # each step, so an untouched row that enters now must carry the
        # product of those factors: prev.
        for r in range(col + len(window), min(n, col + b + 1)):
            off_matrix = b - (r - col)  # leading entries left of column 0
            entering = [int(x) * prev for x in rows[r][off_matrix:]]
            entering += [0] * off_matrix
            if rhs is not None:
                entering.append(int(rhs[r]) * prev)
            window.append(entering)
        pivot_at = next((i for i, row in enumerate(window) if row[0]), None)
        if pivot_at is None:
            return None
        if pivot_at:
            window[0], window[pivot_at] = window[pivot_at], window[0]
            sign = -sign
        base = window.pop(0)
        pivot = base[0]
        tail = base[1:]
        for i, row in enumerate(window):
            lead = row[0]
            updated = []
            for x, y in zip(row[1:], tail):
                quotient, remainder = divmod(pivot * x - lead * y, prev)
                if remainder:
                    raise ConsistencyError("fraction-free step left a remainder")
                updated.append(quotient)
            updated.insert(2 * b, 0)  # column col+2b+1, beyond every pivot row
            window[i] = updated
        if rhs is not None or col == n - 1:
            upper.append(base)
        prev = pivot
    return sign, upper


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer band matrix (1 for the empty one)."""
    if not rows:
        return 1
    forward = _forward(rows, None)
    if forward is None:
        return 0
    sign, upper = forward
    return sign * upper[-1][0]


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """Exact solution of a nonsingular integer band system A x = b.

    Raises ConsistencyError when the matrix is singular.
    """
    n = len(rows)
    if len(rhs) != n:
        raise ConsistencyError("right-hand side length does not match the matrix")
    if n == 0:
        return []
    forward = _forward(rows, rhs)
    if forward is None:
        raise ConsistencyError("system is singular")
    upper = forward[1]
    scale = upper[-1][0]
    scaled = [0] * n  # scale * x, integral by Cramer's rule
    for i in range(n - 1, -1, -1):
        row = upper[i]
        acc = scale * row[-1]
        for j in range(1, min(len(row) - 1, n - i)):
            acc -= row[j] * scaled[i + j]
        scaled[i], remainder = divmod(acc, row[0])
        if remainder:
            raise ConsistencyError("back-substitution left a remainder")
    return [Fraction(value, scale) for value in scaled]
