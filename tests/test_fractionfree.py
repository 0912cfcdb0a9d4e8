import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclepow import fractionfree
from cyclepow.errors import ConsistencyError
from cyclepow.fractionfree import adjugate_diagonal, determinant, solve
from cyclepow.graphs import GraphSpec, build_laplacian

from oracles import gauss_solve, permutation_determinant, to_band


@st.composite
def spd_band_matrices(draw, max_size=7, max_band=3):
    """(matrix, half-width b) for symmetric integer matrices zero outside
    the band, made positive definite by strict diagonal dominance.

    Sizes run both below and above b + 1, and zeros are drawn often inside
    the band too, so some band entries start at zero and fill in later.
    """
    n = draw(st.integers(1, max_size))
    b = draw(st.integers(0, max_band))
    entries = st.one_of(st.just(0), st.integers(-5, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, min(n, i + b + 1)):
            rows[i][j] = rows[j][i] = draw(entries)
    for i in range(n):
        off_diagonal = sum(abs(x) for j, x in enumerate(rows[i]) if j != i)
        rows[i][i] = off_diagonal + draw(st.integers(1, 4))
    return rows, b


@given(spd_band_matrices())
@example(([[2, 0], [0, 2]], 0))
@example(([[3, 1], [1, 3]], 3))  # half-width beyond the matrix
@example(([[2, 0, 1, 0], [0, 2, 0, 1], [1, 0, 2, 0], [0, 1, 0, 2]], 2))
@settings(max_examples=300, deadline=None)
def test_determinant_matches_permutation_formula(matrix):
    rows, b = matrix
    assert determinant(to_band(rows, b)) == permutation_determinant(rows)


@given(spd_band_matrices())
@example(([[7]], 0))
@example(([[3, 1], [1, 3]], 3))  # half-width beyond the matrix
@settings(max_examples=300, deadline=None)
def test_adjugate_diagonal_matches_deleted_determinants(matrix):
    rows, b = matrix
    minors = []
    for p in range(len(rows)):
        kept = [
            [x for j, x in enumerate(row) if j != p] for row in rows[:p] + rows[p + 1 :]
        ]
        minors.append(determinant(to_band(kept, b)))
    assert adjugate_diagonal(to_band(rows, b)) == minors


@st.composite
def spd_band_systems(draw, max_size=12):
    rows, b = draw(spd_band_matrices(max_size=max_size))
    rhs = draw(st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows)))
    return (rows, b), rhs


@given(spd_band_systems())
@example((([[2, 1], [1, 2]], 1), [5, 4]))
@example((([[5]], 2), [3]))
@settings(max_examples=300, deadline=None)
def test_solve_matches_plain_gaussian_elimination(system):
    (rows, b), rhs = system
    assert solve(to_band(rows, b), rhs) == gauss_solve(rows, rhs)


@pytest.mark.parametrize(
    "band",
    [
        to_band([[2, 1], [0, 2]]),  # not symmetric
        to_band([[1, 2], [2, 1]]),  # symmetric, indefinite
        build_laplacian(GraphSpec(7, 2))[1],  # semidefinite: no vertex removed
    ],
    ids=["non-symmetric", "indefinite", "full-laplacian"],
)
def test_rejects_all_but_symmetric_positive_definite(band):
    # Twice each: a failed factorization is not memoised.
    for _ in range(2):
        with pytest.raises(ConsistencyError):
            determinant(band)
        with pytest.raises(ConsistencyError):
            solve(band, [1] * len(band))
        with pytest.raises(ConsistencyError):
            adjugate_diagonal(band)


def test_solve_reads_the_factor_a_determinant_left():
    rows = build_laplacian(GraphSpec(11, 2), (0,))[1]
    lists = [list(row) for row in rows]
    rhs = list(range(1, len(rows) + 1))
    fractionfree._factor.cache_clear()
    cold = solve(rows, rhs)
    for first, second in ((lists, rows), (rows, lists)):
        fractionfree._factor.cache_clear()
        determinant(first)
        assert solve(second, rhs) == cold
        info = fractionfree._factor.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_solve_checks_each_division_of_its_right_hand_side(monkeypatch):
    # P_0 = 4 and r(1) = 1 after column 0, so U(1, 2) + 1 moves the column-1
    # numerator of r(2) by 1, which P_0 cannot divide.
    rows = build_laplacian(GraphSpec(7, 2), (0,))[1]
    exact = fractionfree._factor(rows)
    assert (exact[0][0], exact[0][1]) == (4, -1)
    perturbed = (exact[0], (exact[1][0], exact[1][1] + 1, *exact[1][2:]), *exact[2:])
    monkeypatch.setattr(fractionfree, "_factor", lambda rows: perturbed)
    with pytest.raises(ConsistencyError, match="right-hand-side step left a remainder"):
        solve(rows, [1] + [0] * (len(rows) - 1))


def test_determinant_empty():
    assert determinant(to_band([])) == 1
    assert adjugate_diagonal(to_band([])) == []


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
        with pytest.raises(ConsistencyError):
            adjugate_diagonal(rows)
