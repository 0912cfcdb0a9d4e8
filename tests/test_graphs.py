import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepow import GraphSpec, ParameterError
from cyclepow.graphs import IntMatrix, build_laplacian, contract_vertices
from cyclepow.fractionfree import determinant
from cyclepow.graphs import check_ell, fold_order

from oracles import count_spanning_trees, edges_from_laplacian


def specs(max_k=6, max_n=40):
    return st.integers(1, max_k).flatmap(
        lambda k: st.integers(2 * k + 1, max_n).map(lambda n: GraphSpec(n, k))
    )


def test_triangle_laplacian():
    lap = build_laplacian(GraphSpec(3, 1))
    assert lap.rows == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_complete_graph_laplacian():
    lap = build_laplacian(GraphSpec(5, 2))
    assert all(
        lap[i, j] == (4 if i == j else -1) for i in range(5) for j in range(5)
    )


def test_n6_k2_first_row():
    lap = build_laplacian(GraphSpec(6, 2))
    assert lap.rows[0] == (4, -1, -1, 0, -1, -1)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (2, 1), (3, 0)])
def test_invalid_specs_rejected(n, k):
    with pytest.raises(ParameterError):
        GraphSpec(n, k)


def test_degree_and_edge_count():
    spec = GraphSpec(9, 3)
    assert spec.degree == 6
    assert spec.num_edges == 27


@given(specs())
@settings(max_examples=60, deadline=None)
def test_laplacian_invariants(spec):
    lap = build_laplacian(spec)
    assert all(s == 0 for s in lap.row_sums())
    assert lap.is_symmetric()
    assert all(lap[i, i] == spec.degree for i in range(spec.n))
    assert lap.trace() == 2 * spec.num_edges


def test_contract_triangle_to_doubled_edge():
    lap = build_laplacian(GraphSpec(3, 1))
    merged = contract_vertices(lap, 0, 1)
    assert merged.rows == ((2, -2), (-2, 2))


def test_contract_k5_reduced_determinant():
    lap = build_laplacian(GraphSpec(5, 2))
    merged = contract_vertices(lap, 0, 2)
    assert merged.size == 4
    assert merged[0, 0] == 6
    assert determinant(merged.delete_row_col(0).rows) == 50


def test_contract_c6_opposite_vertices_brute_force():
    # contracting opposite vertices of the 6-cycle makes two triangles
    # sharing a vertex: 3 * 3 spanning trees
    lap = build_laplacian(GraphSpec(6, 1))
    merged = contract_vertices(lap, 0, 3)
    edges = edges_from_laplacian(merged.rows)
    assert count_spanning_trees(merged.size, edges) == 9
    assert determinant(merged.delete_row_col(0).rows) == 9


def test_contract_rejects_bad_vertices():
    lap = build_laplacian(GraphSpec(5, 1))
    with pytest.raises(ParameterError):
        contract_vertices(lap, 2, 2)
    with pytest.raises(ParameterError):
        contract_vertices(lap, 0, 5)


@given(specs(max_k=4, max_n=20), st.data())
@settings(max_examples=60, deadline=None)
def test_contraction_invariants(spec, data):
    ell = data.draw(st.integers(1, spec.n - 1))
    merged = contract_vertices(build_laplacian(spec), 0, ell)
    assert merged.size == spec.n - 1
    assert all(s == 0 for s in merged.row_sums())
    assert merged.total() == 0
    assert merged.is_symmetric()


def half_bandwidths(rows):
    """(lower, upper): largest distance of a nonzero below/above the diagonal."""
    offsets = [j - i for i, row in enumerate(rows) for j, x in enumerate(row) if x]
    return max(0, -min(offsets)), max(0, max(offsets))


@given(specs(), st.data())
@settings(max_examples=60, deadline=None)
def test_folded_laplacians_are_banded(spec, data):
    lap = build_laplacian(spec)
    ell = data.draw(st.integers(1, spec.n - 1))
    reduced = lap.delete_row_col(0)
    contracted = contract_vertices(lap, 0, ell).delete_row_col(0)
    for matrix in (reduced, contracted):
        folded = matrix.folded()
        assert max(half_bandwidths(folded.rows)) <= 2 * spec.k
        assert determinant(folded.rows) == determinant(matrix.rows)


def test_fold_order_from_both_ends():
    assert fold_order(6) == (0, 5, 1, 4, 2, 3)
    assert fold_order(5) == (0, 4, 1, 3, 2)
    assert fold_order(1) == (0,)


def test_int_matrix_must_be_square():
    with pytest.raises(ParameterError):
        IntMatrix(((1, 2), (3,)))


def test_int_matrix_constructor_converts_entries():
    matrix = IntMatrix([[True, np.int64(-2)], (3.0, "4")])
    assert matrix.rows == ((1, -2), (3, 4))
    assert all(type(x) is int for row in matrix.rows for x in row)


@given(specs(max_k=4, max_n=16), st.data())
@settings(max_examples=30, deadline=None)
def test_derived_matrices_equal_their_validated_construction(spec, data):
    ell = data.draw(st.integers(1, spec.n - 1))
    lap = build_laplacian(spec)
    derived = [
        lap,
        lap.delete_row_col(0),
        lap.delete_row_col(0).folded(),
        contract_vertices(lap, 0, ell),
        contract_vertices(lap, 0, ell).delete_row_col(0).folded(),
    ]
    for matrix in derived:
        assert matrix == IntMatrix(matrix.rows)
        assert type(matrix.rows) is tuple
        assert all(type(row) is tuple for row in matrix.rows)
        assert all(type(x) is int for row in matrix.rows for x in row)
        assert all(len(row) == matrix.size for row in matrix.rows)
    assert determinant(derived[2].rows) == determinant(derived[1].rows)


def test_check_ell_bounds_and_message():
    spec = GraphSpec(6, 2)
    for ell in range(6):
        check_ell(spec, ell)
    check_ell(spec, 1, lowest=1)
    for ell, lowest in ((-1, 0), (6, 0), (0, 1), (6, 1)):
        with pytest.raises(ParameterError) as info:
            check_ell(spec, ell, lowest)
        assert str(info.value) == f"need {lowest} <= ell < 6, got {ell}"
