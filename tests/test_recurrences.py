from itertools import product

import pytest
from mpmath import mp

from cyclepow import ParameterError, cached_factorization
from cyclepow.recurrences import (
    correction_ratio,
    full_index_ratio,
    half_index_coefficient,
)

from cyclepow import recurrences
from cyclepow.recurrences import _doubled_terms, correction_ratios
from cyclepow.spectral import _GUARD_BITS, certified_bound, conjugate_pairs

from oracles import exact_conjugates, fibonacci, term_by_binet, term_by_recurrence


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
    for form in ("exponential", "sequence"):
        with pytest.raises(ParameterError):
            correction_ratio(k2_factor(), 0, 0, form)
    with pytest.raises(ParameterError):
        full_index_ratio(k2_factor(), 0, 0)


@pytest.mark.parametrize("form", ["exponential", "sequence"])
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


@pytest.mark.parametrize("n", (7, 12, 20))
@pytest.mark.parametrize("k", range(2, 7))
def test_other_square_root_gives_identical_ratios(k, n, monkeypatch):
    # -sigma negates delta, and with it W_n for every even n; negation is
    # exact, so the two roots give the same ratios bit for bit.
    for factor in cached_factorization(k, 256).factors:
        with mp.workprec(256 + _GUARD_BITS):
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
    # The tables verify reads: values[ell] * values[n - ell] / denominator.
    # Swapping the factors of an mpc product swaps terms of correctly rounded
    # sums, so ell and n - ell give the same bits.
    for k in range(2, 9):
        for factor in cached_factorization(k, 256).factors:
            for n in range(2 * k + 1, 33):
                ratios = correction_ratios(factor, n, "exponential", 256)
                for ell in range(n + 1):
                    assert ratios[ell] == ratios[n - ell]


def test_ratio_conjugation():
    # Conjugate factors give exactly conjugate ratios: tables and single ell,
    # in both forms, up to N = 10^5 + 3.
    for k in range(3, 9):
        for bits in (64, 256, 512):
            _, pairs = conjugate_pairs(cached_factorization(k, bits).factors)
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
        literal = full_index_ratio(factor, 1, 6, 256)
        assert abs(literal + mp.mpf(55) / 144) < mp.mpf(2) ** -100
        verified = correction_ratio(factor, 1, 6)
        assert abs(literal - verified) > mp.mpf("0.2")
