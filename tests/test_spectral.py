import random
from fractions import Fraction

import pytest
from mpmath import mp

from cyclepow import (
    ConsistencyError,
    DegeneracyError,
    ParameterError,
    PrecisionError,
    build_psi,
)
from cyclepow import spectral
from cyclepow.polynomials import derivative, eval_poly
from cyclepow.spectral import (
    cached_factorization,
    check_decomposition,
    find_roots,
    gaussian_product,
    inner_root,
    partial_fractions,
    residual_tolerance,
    round_divide,
    round_shift,
    separation_tolerance,
    to_fixed,
    working_precision,
)

from oracles import exact_conjugate, exact_conjugates

# Every k through 16, and two larger ones; k = 48 has its own test.
WIDE_K = [*range(2, 17), 24, 32]


def assert_layout(k, bits):
    """The factors are find_roots' real and upper roots in its order, one per
    real root and one per conjugate pair."""
    roots = find_roots(build_psi(k), bits)
    reals = sum(1 for root in roots if root.imag == 0)
    pairs = sum(1 for root in roots if root.imag > 0)
    factors = cached_factorization(k, bits).factors
    assert reals + 2 * pairs == k - 1
    assert len(factors) == reals + pairs
    assert all(factor.root.imag > 0 for factor in factors if factor.root.imag)
    assert [factor.root for factor in factors] == [
        root for root in roots if root.imag >= 0
    ]


def assert_lower_roots_give_conjugate_factors(k, bits):
    """Each lower root of find_roots, taken through partial_fractions' own
    steps, gives the exact conjugate of a kept factor (root, inner root and
    coefficient): what a non-real factor stands for is what the lower root's
    factor would be, bit for bit."""
    psi = build_psi(k)
    dpsi = derivative(psi)
    uppers = [f for f in cached_factorization(k, bits).factors if f.root.imag]
    lowers = [root for root in find_roots(psi, bits) if root.imag < 0]
    assert len(lowers) == len(uppers)
    with working_precision(bits):
        for gamma in lowers:
            lower = (
                gamma,
                inner_root(gamma, bits),
                -2 * k / ((2 - gamma) * eval_poly(dpsi, gamma)),
            )
            assert any(
                all(
                    map(
                        exact_conjugates,
                        (upper.root, upper.inner_root, upper.coefficient),
                        lower,
                    )
                )
                for upper in uppers
            )


def test_find_roots_degenerate_and_linear():
    assert find_roots(build_psi(1)) == []
    roots = find_roots(build_psi(2))
    assert len(roots) == 1
    assert roots[0] == -3


def test_find_roots_conjugate_pair_k3():
    roots = find_roots(build_psi(3))
    assert len(roots) == 2
    with mp.workprec(256):
        half_root7 = mp.sqrt(7) / 2
        lower, upper = sorted(roots, key=lambda z: z.imag)
        assert abs(lower - mp.mpc(mp.mpf(-3) / 2, -half_root7)) < mp.mpf(2) ** -100
        assert abs(upper - mp.mpc(mp.mpf(-3) / 2, half_root7)) < mp.mpf(2) ** -100


@pytest.mark.parametrize("k", range(1, 9))
def test_root_count_and_residuals(k):
    roots = find_roots(build_psi(k), 256)
    assert len(roots) == k - 1
    psi = build_psi(k)
    with mp.workprec(288):
        from cyclepow.polynomials import eval_poly

        for gamma in roots:
            assert abs(eval_poly(psi, gamma)) <= mp.mpf(2) ** -128


def test_find_roots_requires_64_bits():
    with pytest.raises(ParameterError):
        find_roots(build_psi(3), 32)


def test_partial_fractions_certifies_large_k():
    sf = partial_fractions(48, 256)
    assert all(factor.residual <= residual_tolerance(256) for factor in sf.factors)
    roots = find_roots(build_psi(48), 256)
    assert len(roots) == 47
    with mp.workprec(288):
        separation = min(
            abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]
        )
    assert separation > separation_tolerance(256)
    assert_layout(48, 256)
    assert_lower_roots_give_conjugate_factors(48, 256)


def test_find_roots_rejects_estimates_not_closed_under_conjugation(monkeypatch):
    original = spectral._root_estimates

    def unbalanced(psi):
        estimates = list(original(psi))
        estimates.remove(max(estimates, key=mp.im))  # one upper estimate
        return estimates

    monkeypatch.setattr(spectral, "_root_estimates", unbalanced)
    with pytest.raises(ConsistencyError, match="not closed under conjugation"):
        find_roots(build_psi(5), 128)


def test_unconverged_seeding_is_a_precision_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise mp.NoConvergence("Didn't converge")

    monkeypatch.setattr(mp, "polyroots", no_convergence)
    with pytest.raises(PrecisionError, match="not precision_bits") as error:
        find_roots(build_psi(5), 128)
    assert "degree-4" in str(error.value)


def test_inner_root_examples():
    with mp.workprec(256):
        rho = inner_root(mp.mpc(-3))
        assert abs(rho - (-3 + mp.sqrt(5)) / 2) < mp.mpf(2) ** -120
        assert abs(inner_root(mp.mpf("2.5")) - mp.mpf("0.5")) < mp.mpf(2) ** -120


def test_inner_root_complex_residual():
    with mp.workprec(160):
        gamma = mp.mpc(mp.mpf(-3) / 2, mp.sqrt(7) / 2)
        rho = inner_root(gamma, 128)
        assert abs(rho) < 1
        assert abs(rho + 1 / rho - gamma) < mp.mpf(2) ** -64


def test_inner_root_degenerate_on_arc():
    with pytest.raises(DegeneracyError):
        inner_root(mp.mpc(2))
    with pytest.raises(DegeneracyError):
        inner_root(mp.mpc(0))  # rho = +-i sits on the unit circle


def test_partial_fractions_k1():
    sf = partial_fractions(1)
    assert sf.pole_coefficient == Fraction(2)
    assert sf.factors == ()


def test_partial_fractions_k2():
    sf = partial_fractions(2)
    assert sf.pole_coefficient == Fraction(4, 5)
    (factor,) = sf.factors
    with mp.workprec(256):
        assert abs(factor.root - (-3)) < mp.mpf(2) ** -120
        assert abs(factor.coefficient - Fraction(-4, 5)) < mp.mpf(2) ** -120


def test_partial_fractions_k3():
    sf = partial_fractions(3)
    with mp.workprec(256):
        upper = next(f for f in sf.factors if mp.im(f.root) > 0)
        expected = mp.mpf(-3) / 14 * (1 - mp.mpc(0, 1) * mp.sqrt(7))
        assert abs(upper.coefficient - expected) < mp.mpf(2) ** -100


@pytest.mark.parametrize("k", range(1, 9))
def test_pole_coefficient_formula(k):
    sf = partial_fractions(k)
    assert sf.pole_coefficient == Fraction(12, (k + 1) * (2 * k + 1))


@pytest.mark.parametrize("k", WIDE_K)
def test_roots_avoid_spectrum_arc(k):
    with mp.workprec(256):
        for factor in cached_factorization(k, 256).factors:
            re, im = mp.re(factor.root), mp.im(factor.root)
            if -2 <= re <= 2:
                distance = abs(im)
            else:
                distance = min(abs(factor.root - 2), abs(factor.root + 2))
            assert distance > mp.mpf(2) ** -32
            assert abs(factor.inner_root) < 1


@pytest.mark.parametrize("k", WIDE_K)
def test_conjugate_closure(k):
    for bits in (64, 256, 512):
        assert_lower_roots_give_conjugate_factors(k, bits)


@pytest.mark.parametrize("k", WIDE_K)
def test_real_roots_are_exactly_real(k):
    # A factor is real when Im(root) == 0, so no root may be real up to
    # rounding only; a real root's inner root and coefficient are exactly
    # real as well.
    for bits in (64, 256, 512):
        tol = residual_tolerance(bits)
        for factor in cached_factorization(k, bits).factors:
            assert factor.root.imag == 0 or factor.root.imag > tol
            if factor.root.imag == 0:
                assert factor.inner_root.imag == 0 and factor.coefficient.imag == 0


@pytest.mark.parametrize("k", WIDE_K)
def test_one_factor_per_real_root_and_per_conjugate_pair(k):
    for bits in (64, 256, 512):
        assert_layout(k, bits)


def test_factor_layout_small_k():
    (upper,) = partial_fractions(3).factors
    assert upper.root.imag > 0
    real, upper = partial_fractions(4).factors
    assert real.root.imag == 0 and upper.root.imag > 0


def test_partial_fractions_rejects_an_inner_root_off_its_root(monkeypatch):
    original = spectral.inner_root

    def perturbed(gamma, precision_bits):
        with mp.workprec(precision_bits + 32):
            return original(gamma, precision_bits) * (1 + mp.mpf(2) ** -40)

    monkeypatch.setattr(spectral, "inner_root", perturbed)
    with pytest.raises(PrecisionError, match="inner root does not reproduce its root"):
        partial_fractions(3, 256)


def test_check_decomposition_fixed_points():
    with mp.workprec(256):
        assert check_decomposition(partial_fractions(2), 0) <= mp.mpf(2) ** -100
        assert check_decomposition(partial_fractions(3), 1) <= mp.mpf(2) ** -100
        assert check_decomposition(partial_fractions(1), 0) <= mp.mpf(2) ** -100


def test_check_decomposition_rejects_near_pole():
    sf = partial_fractions(2)
    with pytest.raises(ParameterError):
        check_decomposition(sf, 2.001)
    with pytest.raises(ParameterError):
        check_decomposition(sf, -3.0000001)
    # k = 3 keeps only the upper root; its conjugate is a pole too.
    (upper,) = partial_fractions(3).factors
    for pole in (upper.root, exact_conjugate(upper.root)):
        with pytest.raises(ParameterError, match="root pole"):
            check_decomposition(partial_fractions(3), pole + 0.001)


@pytest.mark.parametrize("k", range(1, 9))
def test_check_decomposition_random_points(k):
    rng = random.Random(1234 + k)
    sf = partial_fractions(k)
    with mp.workprec(288):
        roots = [f.root for f in sf.factors]
        poles = [mp.mpc(2)] + roots + [exact_conjugate(root) for root in roots]
        done = 0
        while done < 16:
            point = mp.mpc(rng.uniform(-6, 6), rng.uniform(-3, 3))
            if any(abs(point - pole) <= 0.25 for pole in poles):
                continue
            assert check_decomposition(sf, point) <= mp.mpf(2) ** -128
            done += 1


def test_factorization_rejects_bad_k():
    with pytest.raises(ParameterError):
        partial_fractions(0)


def nearest_away(q):
    """The integer nearest the Fraction q, ties away from zero."""
    magnitude = (2 * abs(q.numerator) + q.denominator) // (2 * q.denominator)
    return magnitude if q >= 0 else -magnitude


@pytest.mark.parametrize("shift", [-3, 0, 1, 2, 5])
def test_round_shift_is_nearest_with_ties_away_from_zero(shift):
    for value in range(-300, 301):
        expected = nearest_away(Fraction(value, 1) / Fraction(2) ** shift)
        assert round_shift(value, shift) == expected, (value, shift)


@pytest.mark.parametrize("divisor", [1, 2, 3, 4, 7])
def test_round_divide_is_nearest_with_ties_away_from_zero(divisor):
    for value in range(-300, 301):
        expected = nearest_away(Fraction(value, divisor))
        assert round_divide(value, divisor) == expected, (value, divisor)


def test_to_fixed_and_gaussian_product_round_each_part():
    # 2.5 and -2.5 are exact ties at F = 0; 0.375 * 2^2 = 1.5 is one at F = 2.
    assert to_fixed(mp.mpf(2.5), 0) == 3
    assert to_fixed(mp.mpf(-2.5), 0) == -3
    assert to_fixed(mp.mpf(0.375), 2) == 2
    assert to_fixed(mp.mpf(-0.375), 2) == -2
    assert to_fixed(mp.mpf(3), 4) == 48
    assert to_fixed(mp.mpc(0.375, -2.5), 2) == (2, -10)
    # (3 + 5i)(7 - 2i) = 31 + 29i; / 2^1 is 15.5 + 14.5i, both ties.
    assert gaussian_product((3, 5), (7, -2), 1) == (16, 15)
    assert gaussian_product((-3, 5), (7, 2), 1) == (-16, 15)
