from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclepow.errors import ConsistencyError
from cyclepow.fractionfree import determinant, solve

from oracles import gauss_solve, permutation_determinant, to_band


@st.composite
def banded_matrices(draw, max_size=7, max_band=3):
    """Integer matrices that are zero outside a random band.

    Zeros are drawn often inside the band too, so leading entries vanish and
    force row swaps inside the pivot window, and singular matrices occur.
    """
    n = draw(st.integers(1, max_size))
    lower = draw(st.integers(0, max_band))
    upper = draw(st.integers(0, max_band))
    entries = st.one_of(st.just(0), st.integers(-5, 5))
    return [
        [draw(entries) if -lower <= j - i <= upper else 0 for j in range(n)]
        for i in range(n)
    ]


def square_matrices(max_size=5, lo=-6, hi=6):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_determinant_matches_permanent_formula(rows):
    assert determinant(to_band(rows)) == permutation_determinant(rows)


@given(banded_matrices())
@example([[2, 0], [0, 2]])  # no band below the diagonal: the last row still scales
@example([[0, 2, 0, 0], [3, 1, 1, 0], [0, 1, 0, 5], [0, 0, 2, 1]])
@example([[0, 1, 0], [1, 0, 1], [0, 1, 0]])  # singular after a swap
@settings(max_examples=200, deadline=None)
def test_banded_determinant_matches_permanent_formula(rows):
    assert determinant(to_band(rows)) == permutation_determinant(rows)


def banded_systems(max_size=12):
    return banded_matrices(max_size=max_size).flatmap(
        lambda rows: st.tuples(
            st.just(rows),
            st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows)),
        )
    )


@given(banded_systems())
@example(([[0, 3, 0], [2, 0, 0], [0, 0, 0]], [1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_banded_solve_matches_plain_gaussian_elimination(system):
    rows, rhs = system
    try:
        expected = gauss_solve(rows, rhs)
    except ZeroDivisionError:
        with pytest.raises(ConsistencyError):
            solve(to_band(rows), rhs)
    else:
        assert solve(to_band(rows), rhs) == expected


def test_determinant_empty_and_singular():
    assert determinant(to_band([])) == 1
    assert determinant(to_band([[0, 0], [0, 0]])) == 0
    assert determinant(to_band([[1, 2], [2, 4]])) == 0


def test_determinant_needs_pivot_swap():
    assert determinant(to_band([[0, 1], [1, 0]])) == -1
    assert determinant(to_band([[0, 2, 1], [3, 0, 0], [0, 0, 1]])) == -6


@given(square_matrices(max_size=4))
@settings(max_examples=150, deadline=None)
def test_solve_matches_plain_gaussian_elimination(rows):
    n = len(rows)
    rhs = list(range(1, n + 1))
    if determinant(to_band(rows)) == 0:
        with pytest.raises(ConsistencyError):
            solve(to_band(rows), rhs)
    else:
        assert solve(to_band(rows), rhs) == gauss_solve(rows, rhs)


def test_solve_simple_system():
    # 2x + y = 5, x - y = 1  ->  x = 2, y = 1
    assert solve(to_band([[2, 1], [1, -1]]), [5, 1]) == [Fraction(2), Fraction(1)]


def test_solve_rejects_mismatched_rhs():
    with pytest.raises(ConsistencyError):
        solve(to_band([[1, 0], [0, 1]]), [1])


def test_solve_empty_system():
    assert solve([], []) == []
    with pytest.raises(ConsistencyError):
        solve([], [1])


def test_band_rows_must_share_one_odd_length():
    for rows in ([[0, 1, 0], [1, 0]], [[1, 0], [0, 1]]):
        with pytest.raises(ConsistencyError):
            determinant(rows)
        with pytest.raises(ConsistencyError):
            solve(rows, [1, 1])
