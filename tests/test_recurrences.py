from itertools import product

import pytest
from mpmath import mp

from cyclepow import ParameterError, cached_factorization
from cyclepow.recurrences import (
    correction_ratio,
    half_index_coefficient,
)

from cyclepow import recurrences
from cyclepow.recurrences import _doubled_terms, correction_ratios
from cyclepow.spectral import certified_bound, working_precision

from oracles import (
    conjugate_factor,
    exact_conjugates,
    fibonacci,
    term_by_binet,
    term_by_recurrence,
)


def k2_factor():
    return cached_factorization(2, 256).factors[0]


def test_recurrence_against_even_fibonacci():
    # coefficient -3 generates (up to sign) the even-indexed Fibonacci numbers
    assert term_by_recurrence(-3, 0) == 0
    assert term_by_recurrence(-3, 1) == 1
    assert term_by_recurrence(-3, 5) == 55
    assert term_by_recurrence(-3, 6) == -144
    for n in range(1, 15):
        assert abs(term_by_recurrence(-3, n)) == fibonacci(2 * n)


@pytest.mark.parametrize("coefficient", [2, 3, -3, mp.mpc(1, 2)])
def test_doubled_terms_equal_stepped_terms_when_exact(coefficient):
    # |W_m| < 2^(2m) for these coefficients, so at 4 * 4097 bits every
    # Gaussian-integer term of either route is exact
    indices = [*range(301), 1023, 1024, 4097]
    with mp.workprec(4 * 4097):
        assert _doubled_terms(coefficient, indices) == {
            m: term_by_recurrence(coefficient, m) for m in indices
        }


def test_binet_examples():
    with mp.workprec(256):
        base = (-3 + mp.sqrt(5)) / 2
        assert abs(term_by_binet(base, 4) - (-21)) < mp.mpf(2) ** -100
        assert abs(term_by_binet(base, 1) - 1) < mp.mpf(2) ** -120
        value = term_by_binet(mp.mpf("0.5"), 3)
        assert abs(value - mp.mpf(21) / 4) < mp.mpf(2) ** -120
        # same sequence through the recurrence with coefficient 1/2 + 2
        assert abs(term_by_recurrence(mp.mpf("2.5"), 3, 256) - value) \
            < mp.mpf(2) ** -100


def test_half_index_coefficient_squares_to_root_plus_two():
    for k in range(2, 7):
        for factor in cached_factorization(k, 256).factors:
            delta = half_index_coefficient(factor, 256)
            with mp.workprec(256):
                assert abs(delta**2 - (factor.root + 2)) < mp.mpf(2) ** -120


def test_half_index_k2_is_fibonacci_scale():
    factor = k2_factor()
    delta = half_index_coefficient(factor, 256)
    with mp.workprec(256):
        # delta^2 = gamma + 2 = -1, so |W_n| = F_n
        assert abs(delta**2 + 1) < mp.mpf(2) ** -120
        w6 = term_by_recurrence(delta, 6, 256)
        assert abs(abs(w6) - 8) < mp.mpf(2) ** -100


def test_correction_ratio_k2_fixed_values():
    factor = k2_factor()
    with mp.workprec(256):
        assert abs(correction_ratio(factor, 1, 6) + mp.mpf(5) / 8) < mp.mpf(2) ** -100
        assert abs(correction_ratio(factor, 2, 6) + mp.mpf(3) / 8) < mp.mpf(2) ** -100
        assert correction_ratio(factor, 0, 6) == 0
        assert abs(correction_ratio(factor, 6, 6)) < mp.mpf(2) ** -120


def test_correction_ratio_bounds_checked():
    with pytest.raises(ParameterError):
        correction_ratio(k2_factor(), 7, 6)
    with pytest.raises(ParameterError):
        correction_ratio(k2_factor(), -1, 6)
    with pytest.raises(ParameterError):
        correction_ratio(k2_factor(), 1, 6, form="nope")
    # N = 0 would divide by 1 - rho^0 = W_0 = V_0 = 0
    for form in ("exponential", "sequence", "full-index"):
        with pytest.raises(ParameterError):
            correction_ratio(k2_factor(), 0, 0, form)


@pytest.mark.parametrize("form", ["exponential", "sequence", "full-index"])
@pytest.mark.parametrize("k", range(2, 5))
def test_ratio_table_is_bit_identical_to_each_ell(k, form):
    for factor in cached_factorization(k, 256).factors:
        for n in range(2 * k + 1, 31):
            table = correction_ratios(factor, n, form, 256)
            assert len(table) == n + 1
            for ell, value in enumerate(table):
                single = correction_ratio(factor, ell, n, form, 256)
                assert value.real == single.real and value.imag == single.imag


def test_ratio_table_validates_its_arguments():
    with pytest.raises(ParameterError):
        correction_ratios(k2_factor(), 6, form="nope")
    with pytest.raises(ParameterError):
        correction_ratios(k2_factor(), -1)
    with pytest.raises(ParameterError):
        correction_ratios(k2_factor(), 0)


# Every route that takes ell or N, called as route(factor, ell, n).
INDEX_ROUTES = {
    "correction_ratio-exponential": correction_ratio,
    "correction_ratio-sequence": lambda factor, ell, n: correction_ratio(
        factor, ell, n, "sequence"
    ),
    "correction_ratio-full-index": lambda factor, ell, n: correction_ratio(
        factor, ell, n, "full-index"
    ),
    "correction_ratios": lambda factor, ell, n: correction_ratios(factor, n),
}


@pytest.mark.parametrize("value", [2.5, 10.0, mp.mpf(2), "2"])
@pytest.mark.parametrize("route", INDEX_ROUTES.values(), ids=INDEX_ROUTES)
def test_every_index_route_rejects_a_non_integer(route, value):
    # A float ell once gave a complex ratio for a real root.
    if route is not INDEX_ROUTES["correction_ratios"]:
        with pytest.raises(ParameterError) as info:
            route(k2_factor(), value, 10)
        assert str(info.value) == f"ell must be an integer, got {value!r}"
    with pytest.raises(ParameterError) as info:
        route(k2_factor(), 2, value)
    assert str(info.value) == f"n_vertices must be an integer, got {value!r}"


@pytest.mark.parametrize("n", (7, 12, 20))
@pytest.mark.parametrize("k", range(2, 7))
def test_other_square_root_gives_identical_ratios(k, n, monkeypatch):
    # -sigma negates delta, and with it W_n for every even n; negation is
    # exact, so the two roots give the same ratios bit for bit.
    for factor in cached_factorization(k, 256).factors:
        with working_precision(256):
            sigma = mp.sqrt(mp.mpc(factor.inner_root))
            plus, minus = sigma + 1 / sigma, -sigma + 1 / -sigma
            assert minus == -plus
        assert half_index_coefficient(factor, 256) == plus
        principal = correction_ratios(factor, n, "sequence", 256)
        taken = []

        def other_root(*args):
            taken.append(args)
            return minus

        with monkeypatch.context() as patched:
            patched.setattr(recurrences, "half_index_coefficient", other_root)
            other = correction_ratios(factor, n, "sequence", 256)
        assert taken == [(factor, 256)]
        assert other == principal


@pytest.mark.parametrize("k", range(2, 7))
def test_binet_recurrence_agreement(k):
    with mp.workprec(288):
        for factor in cached_factorization(k, 256).factors:
            rho = mp.mpc(factor.inner_root)
            for n in (0, 1, 2, 5, 13, 32, 64):
                by_rec = term_by_recurrence(factor.root, n, 256)
                by_binet = term_by_binet(rho, n, 256)
                assert abs(by_rec - by_binet) <= mp.mpf(2) ** -128 * max(
                    1, abs(by_rec)
                )


@pytest.mark.parametrize("k", range(2, 7))
def test_form_agreement_sampled(k):
    with mp.workprec(288):
        for factor in cached_factorization(k, 256).factors:
            for n in (2 * k + 1, 17, 24):
                for ell in range(n + 1):
                    exp_form = correction_ratio(factor, ell, n, "exponential", 256)
                    seq_form = correction_ratio(factor, ell, n, "sequence", 256)
                    assert abs(exp_form - seq_form) <= mp.mpf(2) ** -128 * max(
                        1, abs(exp_form)
                    )


@pytest.mark.parametrize("k", [2, 3, 6, 8])
def test_sequence_form_by_doubling_at_large_n(k):
    # against the exponential form at the same precision (the certified
    # tolerance) and at twice the precision (the doubling's own error)
    bits = 256
    factors = cached_factorization(k, bits).factors
    references = cached_factorization(k, 2 * bits).factors
    for n in (10**5, 10**6 + 3):
        for ell in (1, n // 3, n // 2, n - 1):
            for factor, reference in zip(factors, references):
                seq_form = correction_ratio(factor, ell, n, "sequence", bits)
                exp_form = correction_ratio(factor, ell, n, "exponential", bits)
                exact = correction_ratio(reference, ell, n, "exponential", 2 * bits)
                with mp.workprec(4 * bits):
                    assert abs(seq_form - exp_form) <= certified_bound(exp_form, bits)
                    assert abs(seq_form - exact) <= mp.mpf(2) ** -(bits + 24) * abs(
                        exact
                    )


def test_ratio_symmetry():
    with mp.workprec(256):
        for k in (2, 3, 4):
            for factor in cached_factorization(k, 256).factors:
                for n in (9, 14):
                    for ell in range(n + 1):
                        assert correction_ratio(factor, ell, n) == correction_ratio(
                            factor, n - ell, n
                        )
    # The tables verify reads: each ratio is round((1 - P_ell)(1 - P_(n-ell))
    # * inverse) on fixed-point integers.  The first product is exact and
    # commutes, so ell and n - ell give the same integers and the same bits.
    for k in range(2, 9):
        for factor in cached_factorization(k, 256).factors:
            for n in range(2 * k + 1, 33):
                ratios = correction_ratios(factor, n, "exponential", 256)
                for ell in range(n + 1):
                    assert ratios[ell] == ratios[n - ell]


def test_ratio_conjugation():
    # Conjugate factors give exactly conjugate ratios: tables and single ell,
    # in both forms, up to N = 10^5 + 3; so does the full-index ratio that
    # hit_closed_literal sums.  So the closed forms take a pair's term as
    # twice the real part of its upper root's.
    for k in range(3, 9):
        for bits in (64, 256, 512):
            pairs = [
                (upper, conjugate_factor(upper))
                for upper in cached_factorization(k, bits).factors
                if upper.root.imag
            ]
            for (upper, lower), form in product(pairs, ("exponential", "sequence")):
                for n in (2 * k + 1, 24, 97):
                    uppers = correction_ratios(upper, n, form, bits)
                    lowers = correction_ratios(lower, n, form, bits)
                    assert all(map(exact_conjugates, uppers, lowers))
                n = 10**5 + 3
                for ell in (1, 2, n // 3, n // 2, n - 1):
                    assert exact_conjugates(
                        correction_ratio(upper, ell, n, form, bits),
                        correction_ratio(lower, ell, n, form, bits),
                    )
            for (upper, lower), n in product(pairs, (2 * k + 1, 24, 97, 10**5 + 3)):
                for ell in (1, 2, n // 3, n // 2, n - 1):
                    assert exact_conjugates(
                        correction_ratio(upper, ell, n, "full-index", bits),
                        correction_ratio(lower, ell, n, "full-index", bits),
                    )


def test_fibonacci_anchor_k2():
    factor = k2_factor()
    cases = [(n, range(n + 1)) for n in range(5, 49)]
    cases.append((10**4, (1, 3333, 5000, 9999)))
    with mp.workprec(288):
        for n, ells in cases:
            for ell in ells:
                ratio = correction_ratio(factor, ell, n, "sequence", 256)
                expected = mp.mpf(-fibonacci(ell) * fibonacci(n - ell)) / fibonacci(n)
                assert abs(ratio - expected) <= mp.mpf(2) ** -120 * max(
                    1, abs(expected)
                )


def test_full_index_ratio_is_the_known_mismatch():
    # V_1 V_5 / V_6 = -55/144, far from the verified ratio -5/8
    factor = k2_factor()
    with mp.workprec(256):
        literal = correction_ratio(factor, 1, 6, "full-index", 256)
        assert abs(literal + mp.mpf(55) / 144) < mp.mpf(2) ** -100
        verified = correction_ratio(factor, 1, 6)
        assert abs(literal - verified) > mp.mpf("0.2")
