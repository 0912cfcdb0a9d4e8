"""Agreement of the routes at large N.

A first step towards a sparse grid at large N: the spectral sum against the
closed form's sequence route and its fixed-point exponential table, and the
eigenvalue tree product against the inner-root product, at N in the
thousands, where every exact route would take minutes; and, at N = 1000,
the forest count of every ell against the contracted tree counts of one
adjugate sweep, where one determinant per ell would take minutes.
"""

import pytest
from mpmath import mp

from cyclepow import (
    GraphSpec,
    forests,
    hit_closed,
    hit_spectral,
    tau_contracted,
    tau_eigen,
    tau_product,
)
from cyclepow.arboreal import contracted_counts
from cyclepow.hitting import hit_closed_all
from cyclepow.spectral import certified_bound

BITS = 256


@pytest.mark.parametrize("n, k", [(4096, 3), (4099, 6), (8192, 8)])
def test_spectral_sum_agrees_with_sequence_closed_form(n, k):
    spec = GraphSpec(n, k)
    for ell in (1, 7, n // 3, n // 2, n - 1):
        spectral = hit_spectral(spec, ell, BITS)
        closed = hit_closed(spec, ell, BITS, form="sequence")
        with mp.workprec(BITS):
            gap = abs(spectral - closed)
            bound = certified_bound(spectral, BITS) + certified_bound(closed, BITS)
            assert gap <= bound, ell


@pytest.mark.parametrize("n, k", [(4096, 3), (4099, 6)])
def test_spectral_sum_agrees_with_the_closed_table(n, k):
    spec = GraphSpec(n, k)
    table = hit_closed_all(spec, BITS)
    for ell in (1, 7, n // 3, n // 2, n - 1):
        spectral = hit_spectral(spec, ell, BITS)
        assert table[ell] == hit_closed(spec, ell, BITS), ell
        with mp.workprec(BITS):
            gap = abs(spectral - table[ell])
            bound = certified_bound(spectral, BITS) + certified_bound(table[ell], BITS)
            assert gap <= bound, ell


def test_eigenvalue_and_root_tree_products_agree():
    spec = GraphSpec(1024, 3)
    eigen = tau_eigen(spec, BITS)
    product = tau_product(spec, BITS)
    assert abs(eigen - product) <= certified_bound(product, BITS)


def test_every_forest_count_matches_one_adjugate_sweep():
    spec = GraphSpec(1000, 3)
    counts = contracted_counts(spec)
    assert all(forests(spec, ell) == counts[ell] for ell in range(1, spec.n))
    for ell in (1, 333, 500):
        assert counts[ell] == tau_contracted(spec, ell)
