"""Agreement of the analytic routes at N in the thousands.

A first step towards a sparse grid at large N: the spectral sum against the
closed form's sequence route, and the eigenvalue tree product against the
inner-root product, at sizes where every exact route would take minutes.
"""

import pytest
from mpmath import mp

from cyclepow import (
    GraphSpec,
    hit_closed,
    hit_spectral,
    tau_eigen,
    tau_product,
)
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


def test_eigenvalue_and_root_tree_products_agree():
    spec = GraphSpec(1024, 3)
    eigen = tau_eigen(spec, BITS)
    product = tau_product(spec, BITS)
    assert abs(eigen - product) <= certified_bound(product, BITS)
