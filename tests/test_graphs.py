from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepow import (
    ConsistencyError,
    GraphSpec,
    ParameterError,
    arboreal_counts,
    forests,
    graphs,
    hit_closed,
    hit_closed_literal,
    hit_exact,
    hit_simulate,
    hit_spectral,
    resistance,
    tau_contracted,
)
from cyclepow.graphs import build_laplacian, check_ell, fold_order

import oracles
from oracles import count_spanning_trees, edges_from_laplacian, reference_band


def specs(max_k=6, max_n=40):
    return st.integers(1, max_k).flatmap(
        lambda k: st.integers(2 * k + 1, max_n).map(lambda n: GraphSpec(n, k))
    )


def test_triangle_laplacian():
    order, rows = build_laplacian(GraphSpec(3, 1))
    assert order == (0, 2, 1)
    # half-width 2: row i holds columns i-2..i+2
    assert rows == ((0, 0, 2, -1, -1), (0, -1, 2, -1, 0), (-1, -1, 2, 0, 0))


def test_complete_graph_laplacian():
    order, rows = build_laplacian(GraphSpec(5, 2))
    assert order == (0, 4, 1, 3, 2)
    assert all(
        rows[i][4 + j - i] == (4 if i == j else -1) for i in range(5) for j in range(5)
    )


def test_n6_k2_first_row():
    order, rows = build_laplacian(GraphSpec(6, 2))
    # positions 0..4 hold vertices 0, 5, 1, 4, 2; vertex 3 is not a neighbour
    assert order[:5] == (0, 5, 1, 4, 2)
    assert rows[0] == (0, 0, 0, 0, 4, -1, -1, -1, -1)


def test_removed_vertices_are_skipped():
    order, rows = build_laplacian(GraphSpec(7, 1), (0, 3))
    assert order == (6, 1, 5, 2, 4)
    assert [row[2] for row in rows] == [2] * 5
    assert sum(map(sum, rows)) == 4  # one per edge end at 0 or 3 gone
    with pytest.raises(ParameterError):
        build_laplacian(GraphSpec(7, 1), (7,))


def test_neighbour_outside_the_band_raises(monkeypatch):
    # In vertex order 0..n-1 the wrap-around edge 0 -- n-1 spans the matrix.
    monkeypatch.setattr(graphs, "fold_order", lambda size: tuple(range(size)))
    with pytest.raises(ConsistencyError):
        build_laplacian(GraphSpec(9, 1))


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
    _, rows = build_laplacian(spec)
    b = 2 * spec.k
    assert all(sum(row) == 0 for row in rows)
    assert all(
        row[b + d] == rows[i + d][b - d]
        for i, row in enumerate(rows)
        for d in range(-b, b + 1)
        if 0 <= i + d < spec.n
    )
    assert all(row[b] == spec.degree for row in rows)
    assert sum(row[b] for row in rows) == 2 * spec.num_edges


def test_contract_triangle_to_doubled_edge():
    merged = oracles.contract(oracles.dense_laplacian(3, 1), 0, 1)
    assert merged == [[2, -2], [-2, 2]]
    assert tau_contracted(GraphSpec(3, 1), 1) == 2


def test_contract_k5_reduced_determinant():
    assert tau_contracted(GraphSpec(5, 2), 2) == 50


def test_contract_c6_opposite_vertices_brute_force():
    # contracting opposite vertices of the 6-cycle makes two triangles
    # sharing a vertex: 3 * 3 spanning trees
    merged = oracles.contract(oracles.dense_laplacian(6, 1), 0, 3)
    assert count_spanning_trees(5, edges_from_laplacian(merged)) == 9
    assert tau_contracted(GraphSpec(6, 1), 3) == 9


def test_contract_rejects_bad_vertices():
    for ell in (0, 5):
        with pytest.raises(ParameterError):
            tau_contracted(GraphSpec(5, 1), ell)


@pytest.mark.parametrize(
    "spec",
    [GraphSpec(n, k) for k in (1, 2) for n in range(2 * k + 1, 9)],
    ids=str,
)
def test_contracted_tree_counts_against_brute_force(spec):
    lap = oracles.dense_laplacian(spec.n, spec.k)
    for ell in range(1, spec.n):
        edges = edges_from_laplacian(oracles.contract(lap, 0, ell))
        assert tau_contracted(spec, ell) == count_spanning_trees(spec.n - 1, edges)


@given(specs(max_k=8, max_n=200), st.data())
@settings(max_examples=60, deadline=None)
def test_band_rows_equal_the_dense_construction(spec, data):
    n, k = spec.n, spec.k
    if n <= 40:
        ell = data.draw(st.integers(1, n - 1))
    else:
        ell = data.draw(st.sampled_from([1, 2, k, n // 2, n - 1]))
    for removed in ((), (0,), (0, ell)):
        order, rows = build_laplacian(spec, removed)
        assert (list(order), list(map(list, rows))) == reference_band(n, k, removed)


def test_fold_order_from_both_ends():
    assert fold_order(6) == (0, 5, 1, 4, 2, 3)
    assert fold_order(5) == (0, 4, 1, 3, 2)
    assert fold_order(1) == (0,)


def test_check_ell_bounds_and_message():
    spec = GraphSpec(6, 2)
    for ell in range(6):
        check_ell(spec, ell)
    check_ell(spec, 1, lowest=1)
    for ell, lowest in ((-1, 0), (6, 0), (0, 1), (6, 1)):
        with pytest.raises(ParameterError) as info:
            check_ell(spec, ell, lowest)
        assert str(info.value) == f"need {lowest} <= ell < 6, got {ell}"


# Every public route that takes ell, called as route(spec, ell).
ELL_ROUTES = {
    "hit_exact": hit_exact,
    "hit_spectral": hit_spectral,
    "hit_closed": hit_closed,
    "hit_closed_literal": hit_closed_literal,
    "hit_simulate": lambda spec, ell: hit_simulate(spec, ell, 10, 0),
    "resistance": resistance,
    "forests": forests,
    "tau_contracted": tau_contracted,
    "arboreal_counts": arboreal_counts,
}


@pytest.mark.parametrize("ell", [2.5, 2.0, Fraction(2), "2"])
@pytest.mark.parametrize("route", ELL_ROUTES.values(), ids=ELL_ROUTES)
def test_every_ell_route_rejects_a_non_integer_ell(route, ell):
    with pytest.raises(ParameterError) as info:
        route(GraphSpec(10, 2), ell)
    assert str(info.value) == f"ell must be an integer, got {ell!r}"
