import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cyclepow import (
    GraphSpec,
    ParameterError,
    arboreal_counts,
    forests,
    hit_exact,
    resistance,
    tau_contracted,
    tau_det,
    tau_eigen,
    tau_product,
)
from cyclepow.hitting import hit_exact_all
from cyclepow.spectral import certified_bound

from cyclepow import arboreal, fractionfree
from cyclepow.arboreal import contracted_counts

from oracles import (
    count_separating_forests,
    count_spanning_trees,
    dense_laplacian,
    edges_from_laplacian,
    fibonacci,
)


def specs(max_k=4, max_n=20):
    return st.integers(1, max_k).flatmap(
        lambda k: st.integers(2 * k + 1, max_n).map(lambda n: GraphSpec(n, k))
    )


def test_tau_det_examples():
    assert tau_det(GraphSpec(5, 1)) == 5
    assert tau_det(GraphSpec(6, 1)) == 6
    assert tau_det(GraphSpec(5, 2)) == 125
    assert tau_det(GraphSpec(7, 3)) == 16807
    assert tau_det(GraphSpec(6, 2)) == 384


def test_exact_counts_at_n_1000():
    assert tau_det(GraphSpec(1000, 1)) == 1000
    spec = GraphSpec(1000, 2)
    assert tau_det(spec) == 1000 * fibonacci(1000) ** 2
    assert forests(spec, 417) == tau_contracted(spec, 417)


@given(specs(max_k=2, max_n=8))
@settings(max_examples=20, deadline=None)
def test_tau_det_against_brute_force(spec):
    edges = edges_from_laplacian(dense_laplacian(spec.n, spec.k))
    assert tau_det(spec) == count_spanning_trees(spec.n, edges)


@pytest.mark.parametrize(
    "route", [tau_det, hit_exact_all, contracted_counts], ids=lambda f: f.__name__
)
def test_exact_routes_use_band_memory(route):
    # Band rows take O(N * k) integers where an N x N matrix took ~26 MB here.
    hit_exact_all.cache_clear()
    tracemalloc.start()
    try:
        route(GraphSpec(1000, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_tau_eigen_examples():
    with mp.workprec(288):
        assert abs(tau_eigen(GraphSpec(6, 1)) - 6) <= 1e-12 * 6
        assert abs(tau_eigen(GraphSpec(5, 2)) - 125) <= 1e-10 * 125
        assert abs(tau_eigen(GraphSpec(6, 2)) - 384) <= 1e-10 * 384


def test_tau_product_examples():
    with mp.workprec(288):
        for n in (5, 9, 14):
            assert abs(tau_product(GraphSpec(n, 1)) - n) <= 1e-12 * n
        assert abs(tau_product(GraphSpec(5, 2)) - 125) <= 1e-10 * 125
        # even n exercises the alternating sign of the real-root factor
        assert abs(tau_product(GraphSpec(6, 2)) - 384) <= 1e-10 * 384
        expected = tau_det(GraphSpec(8, 3))
        assert abs(tau_product(GraphSpec(8, 3)) - expected) <= 1e-10 * expected


@given(specs())
@settings(max_examples=30, deadline=None)
def test_tree_counts_triple_agreement(spec):
    tau = tau_det(spec)
    with mp.workprec(288):
        assert abs(tau_eigen(spec) - tau) <= 1e-10 * max(1, tau)
        assert abs(tau_product(spec) - tau) <= 1e-10 * max(1, tau)


def test_resistance_examples():
    assert resistance(GraphSpec(5, 2), 1) == Fraction(2, 5)
    assert resistance(GraphSpec(7, 1), 3) == Fraction(12, 7)
    assert resistance(GraphSpec(7, 1), 0) == 0


def test_forests_examples():
    assert forests(GraphSpec(5, 2), 1) == 50
    assert forests(GraphSpec(6, 1), 3) == 9
    assert forests(GraphSpec(7, 1), 1) == 6


def test_forests_against_brute_force():
    for spec, ell in ((GraphSpec(6, 1), 3), (GraphSpec(5, 2), 1), (GraphSpec(7, 1), 2)):
        edges = edges_from_laplacian(dense_laplacian(spec.n, spec.k))
        assert forests(spec, ell) == count_separating_forests(
            spec.n, edges, 0, ell
        )


def test_forests_bounds():
    with pytest.raises(ParameterError):
        forests(GraphSpec(6, 1), 0)
    with pytest.raises(ParameterError):
        forests(GraphSpec(6, 1), 6)


# Graphs that share n or k, so a memo keyed on either alone would mix them up.
MEMO_GRAPHS = (GraphSpec(9, 1), GraphSpec(9, 2), GraphSpec(9, 4), GraphSpec(10, 2),
               GraphSpec(10, 3))


@given(
    st.permutations(
        [(spec, ell) for spec in MEMO_GRAPHS for ell in range(1, spec.n)]
    ).map(lambda cases: cases[:12])
)
@settings(max_examples=25, deadline=None)
def test_memoised_forests_in_any_call_order(cases):
    arboreal._graph_tau.cache_clear()
    for spec, ell in cases:
        count = forests(spec, ell)
        assert count == tau_contracted(spec, ell)
        assert count == tau_det(spec) * hit_exact(spec, ell) / spec.num_edges
    # One tau is kept, so each switch to another graph recomputes it.
    switches = 1 + sum(a != b for (a, _), (b, _) in zip(cases, cases[1:]))
    info = arboreal._graph_tau.cache_info()
    assert info.misses == switches
    assert info.hits == len(cases) - info.misses


def clear_exact_caches():
    for cached in (fractionfree._factor, arboreal._graph_tau, hit_exact_all):
        cached.cache_clear()


def test_tree_bundle_factors_each_reduced_laplacian_once():
    # tau_det, the solve behind resistance and the tau_det behind forests all
    # read L with 0 deleted; tau_contracted eliminates L with 0 and 3 deleted.
    clear_exact_caches()
    arboreal_counts(GraphSpec(9, 2), 3)
    info = fractionfree._factor.cache_info()
    assert (info.misses, info.maxsize) == (2, 1)  # one factor held, not more


def test_contracted_and_forest_counts_share_one_factorization():
    spec = GraphSpec(9, 2)
    clear_exact_caches()
    counts = contracted_counts(spec)
    assert [forests(spec, ell) for ell in range(1, spec.n)] == list(counts[1:])
    assert fractionfree._factor.cache_info().misses == 1


def test_tau_contracted_examples():
    assert tau_contracted(GraphSpec(5, 2), 2) == 50
    assert tau_contracted(GraphSpec(6, 1), 3) == 9
    # contracting one edge of the 6-cycle leaves a 5-cycle
    assert tau_contracted(GraphSpec(6, 1), 1) == 5


@given(specs(max_k=3, max_n=14), st.data())
@settings(max_examples=40, deadline=None)
def test_forest_contraction_duality(spec, data):
    ell = data.draw(st.integers(1, spec.n - 1))
    assert forests(spec, ell) == tau_contracted(spec, ell)


def test_contracted_counts_match_tau_contracted_on_a_grid():
    cases = 0
    for k in range(1, 7):
        for n in range(2 * k + 1, 41):
            spec = GraphSpec(n, k)
            counts = contracted_counts(spec)
            assert len(counts) == n and counts[0] == 0
            for ell in range(1, n):
                assert counts[ell] == tau_contracted(spec, ell), (n, k, ell)
            cases += n - 1
    assert cases == 4519


@given(specs())
@settings(max_examples=30, deadline=None)
def test_tau_times_hitting_is_divisible(spec):
    tau = tau_det(spec)
    profile = hit_exact_all(spec)
    for ell in range(1, spec.n):
        assert (tau * profile[ell] / spec.num_edges).denominator == 1


def test_cycle_eigen_product_is_n_squared():
    # tau(C_n) = n, so the nonzero eigenvalue product must be n^2
    with mp.workprec(288):
        for n in range(3, 65):
            value = tau_eigen(GraphSpec(n, 1)) * n
            assert abs(value - n * n) <= 1e-12 * n * n


@given(specs(max_k=3, max_n=16))
@settings(max_examples=20, deadline=None)
def test_resistance_is_a_metric_along_the_cycle(spec):
    res = [resistance(spec, ell) for ell in range(spec.n)]
    for a in range(1, spec.n):
        assert res[a] == res[spec.n - a]
        for b in range(1, spec.n):
            assert res[(a + b) % spec.n] <= res[a] + res[b]


@pytest.mark.parametrize("n, k", [(200, 3), (97, 48)])
def test_arboreal_counts_grades_large_counts_by_their_relative_bound(n, k):
    # tau has 433 and 627 bits here, more than the 256 of the analytic
    # products: they are checked within certified_bound, never rounded.
    spec = GraphSpec(n, k)
    counts = arboreal_counts(spec, precision_bits=256)
    tau = tau_det(spec)
    assert counts.tree_count == tau
    with mp.workprec(288):
        for value in (counts.tree_count_eigen, counts.tree_count_product):
            assert abs(value - tau) <= certified_bound(value, 256)


def test_arboreal_counts_bundle():
    counts = arboreal_counts(GraphSpec(6, 2), 2)
    assert counts.tree_count == 384
    assert counts.resistance == Fraction(5, 12)
    assert counts.forest_count == counts.contracted_tree_count == 160
    bare = arboreal_counts(GraphSpec(5, 2))
    assert bare.tree_count == 125
    assert bare.forest_count is None


def test_arboreal_counts_k5_fixture():
    counts = arboreal_counts(GraphSpec(5, 2), 1)
    assert counts.tree_count == 125
    assert counts.resistance == Fraction(2, 5)
    assert counts.forest_count == 50


def test_arboreal_counts_checks_ell_before_any_elimination(monkeypatch):
    def fail(*args):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(fractionfree, "determinant", fail)
    monkeypatch.setattr(fractionfree, "solve", fail)
    for spec, ell in ((GraphSpec(1000, 3), 1005), (GraphSpec(1000, 3), 0),
                      (GraphSpec(1000, 3), -1), (GraphSpec(6, 1), 0)):
        with pytest.raises(
            ParameterError, match=rf"^need 1 <= ell < {spec.n}, got {ell}$"
        ):
            arboreal_counts(spec, ell)


@pytest.mark.parametrize("count", [forests, tau_contracted])
def test_forest_counts_name_their_ell_range(count):
    for ell in (0, 6):
        with pytest.raises(ParameterError, match=rf"^need 1 <= ell < 6, got {ell}$"):
            count(GraphSpec(6, 1), ell)
