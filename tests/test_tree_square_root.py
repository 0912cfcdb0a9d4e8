"""The tree square root: tau is N times a square, up to the factor psi_k(-2).

Write the half-index term W_N(delta) of s_{m+1} = delta*s_m - s_{m-1}
(s_0 = 0, s_1 = 1, delta^2 = gamma + 2 for a root gamma of psi_k) as Q_N(gamma)
for odd N and delta*E_N(gamma) for even N, with Q_N and E_N integer
polynomials.  Then tau = N*Res(psi_k, Q_N)^2 for odd N and
tau = N*psi_k(-2)*Res(psi_k, E_N)^2 for even N; so N*|prod_a W_N(delta_a)|^2
is tau.  For k = 2 this is Boesch and Prodinger's tau = N*F_N^2; for k = 3 at
odd N the conjugate pair gives the paper's tau = N*|W_N(delta)|^4.
"""

from math import isqrt

from mpmath import mp

from cyclepow import GraphSpec, cached_factorization, tau_det
from cyclepow.polynomials import build_psi, eval_poly
from cyclepow.recurrences import half_index_coefficient
from cyclepow.spectral import certified_bound, working_precision

from oracles import fibonacci, term_by_recurrence, with_conjugates

BITS = 256


def graphs(kmin, kmax, nmax):
    return [GraphSpec(n, k) for k in range(kmin, kmax + 1)
            for n in range(2 * k + 1, nmax + 1)]


def half_index_product(spec):
    """N * |prod_a W_N(delta_a)|^2 over every root of psi_k, both members
    of each conjugate pair included, at BITS."""
    with working_precision(BITS):
        product = mp.mpc(1)
        for factor in with_conjugates(cached_factorization(spec.k, BITS).factors):
            delta = half_index_coefficient(factor, BITS)
            product *= term_by_recurrence(delta, spec.n, BITS)
        return spec.n * abs(product) ** 2


def test_psi_at_minus_two_is_half_k_rounded_up():
    for k in range(1, 65):
        assert eval_poly(build_psi(k), -2) == (k + 1) // 2, k


def test_k2_tree_count_is_n_times_a_fibonacci_square():
    for n in range(5, 60):
        assert tau_det(GraphSpec(n, 2)) == n * fibonacci(n) ** 2


def test_tree_count_over_n_is_a_perfect_square():
    specs = graphs(1, 8, 60)
    assert len(specs) == 408
    for spec in specs:
        divisor = spec.n if spec.n % 2 else spec.n * eval_poly(build_psi(spec.k), -2)
        q, remainder = divmod(tau_det(spec), divisor)
        assert remainder == 0, spec
        assert isqrt(q) ** 2 == q, spec


def test_half_index_product_is_the_tree_count_within_its_bound():
    specs = graphs(2, 8, 60)
    assert len(specs) == 350
    for spec in specs:
        value = half_index_product(spec)
        with working_precision(BITS):
            assert abs(value - tau_det(spec)) <= certified_bound(value, BITS), spec


def test_k3_odd_tree_count_is_n_times_a_fourth_power():
    (factor,) = cached_factorization(3, BITS).factors  # one conjugate pair
    for n in range(7, 61, 2):
        with working_precision(BITS):
            w = term_by_recurrence(half_index_coefficient(factor, BITS), n, BITS)
            value = n * abs(w) ** 4
            assert abs(value - tau_det(GraphSpec(n, 3))) <= certified_bound(
                value, BITS
            ), n
