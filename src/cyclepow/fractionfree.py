"""Fraction-free integer elimination: exact determinants and linear solves.

One-step (Bareiss-style) elimination keeps every intermediate entry an exact
integer -- each is a minor of the input -- so there is no rational blow-up
mid-run and no rounding ever.

The elimination is banded.  It measures the lower and upper bandwidth of the
matrix it is given and touches nothing outside the band: the pivot search
looks at the `lower` rows below the diagonal, and, as in LAPACK's gbtrf,
partial pivoting widens the upper reach to lower + upper.  A matrix with
half-bandwidths p and q costs O(n * p * (p + q)) integer operations, not
O(n^3); a dense matrix simply has a wide band.  The values computed are those
of dense Bareiss elimination with the same pivots, so each fraction-free
division is still exact and still checked.

Back-substitution also stays in integers: with D the final pivot (+-det A),
Cramer's rule makes D * x integral, so only the returned Fractions divide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ConsistencyError

__all__ = ["determinant", "solve"]


def _bandwidths(aug: list[list[int]], n: int) -> tuple[int, int]:
    """Largest distance below and above the diagonal of a nonzero entry
    among the first n columns."""
    lower = upper = 0
    for i, row in enumerate(aug):
        nonzero = list(map(bool, row[:n]))
        if True in nonzero:
            lower = max(lower, i - nonzero.index(True))
            upper = max(upper, n - 1 - nonzero[::-1].index(True) - i)
    return lower, upper


def _forward(aug: list[list[int]], n: int) -> tuple[int, int] | None:
    """Eliminate below the diagonal in place; return (row-swap sign, reach).

    Columns n and beyond are right-hand sides and are updated in full.  After
    the call every nonzero of row i among the first n columns lies in
    i..i+reach.  Returns None if some pivot column is entirely zero
    (singular matrix).  Every division below is exact by construction; a
    nonzero remainder means the input was not integral.
    """
    lower, upper = _bandwidths(aug, n)
    reach = lower + upper
    rhs = range(n, len(aug[0]))
    sign = 1
    prev = 1
    # The last column has nothing to eliminate, but its row may still have
    # to enter the window (when lower == 0).
    for col in range(n):
        window = min(n, col + lower + 1)
        entering = col + lower
        if col and entering < n:
            # Dense elimination rescales every row below the pivot by
            # pivot/prev at each step, so an untouched row that enters the
            # window now must carry the product of those factors: prev.
            row = aug[entering]
            for c in (*range(col, min(n, entering + upper + 1)), *rhs):
                row[c] *= prev
        pivot_row = next((r for r in range(col, window) if aug[r][col]), None)
        if pivot_row is None:
            return None
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            sign = -sign
        pivot = aug[col][col]
        base = aug[col]
        columns = (*range(col + 1, min(n, col + reach + 1)), *rhs)
        for r in range(col + 1, window):
            row = aug[r]
            lead = row[col]
            for c in columns:
                quotient, remainder = divmod(pivot * row[c] - lead * base[c], prev)
                if remainder:
                    raise ConsistencyError("fraction-free step left a remainder")
                row[c] = quotient
            row[col] = 0
        prev = pivot
    return sign, reach


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (1 for the empty matrix)."""
    n = len(rows)
    if n == 0:
        return 1
    aug = [list(map(int, row)) for row in rows]
    forward = _forward(aug, n)
    if forward is None:
        return 0
    return forward[0] * aug[n - 1][n - 1]


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """Exact solution of a nonsingular integer system A x = b.

    Raises ConsistencyError when the matrix is singular.
    """
    n = len(rows)
    if len(rhs) != n:
        raise ConsistencyError("right-hand side length does not match the matrix")
    if n == 0:
        return []
    aug = [[*map(int, row), int(b)] for row, b in zip(rows, rhs)]
    forward = _forward(aug, n)
    if forward is None or aug[n - 1][n - 1] == 0:
        raise ConsistencyError("system is singular")
    reach = forward[1]
    scale = aug[n - 1][n - 1]
    scaled = [0] * n  # scale * x, integral by Cramer's rule
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = scale * row[n]
        for j in range(i + 1, min(n, i + reach + 1)):
            acc -= row[j] * scaled[j]
        scaled[i], remainder = divmod(acc, row[i])
        if remainder:
            raise ConsistencyError("back-substitution left a remainder")
    return [Fraction(value, scale) for value in scaled]
