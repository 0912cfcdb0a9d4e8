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
from cyclepow.polynomials import eval_poly
from cyclepow.spectral import (
    cached_factorization,
    certified_bound,
    check_decomposition,
    gaussian_product,
    partial_fractions,
    residual_tolerance,
    round_divide,
    round_shift,
    separation_tolerance,
    to_fixed,
    working_bits,
    working_precision,
)

from oracles import (
    exact_conjugate,
    exact_conjugates,
    psi_roots_reference,
    with_conjugates,
)

# Every k through 16, and two larger ones; larger k have their own test.
WIDE_K = [*range(2, 17), 24, 32]


def assert_layout(k, bits):
    """One factor per real root and one per conjugate pair, kept as its
    upper root, in (Re, Im) order; psi_k has one real root exactly when k
    is even, and a real root is an mpc whose imaginary part is exactly 0."""
    roots = [factor.root for factor in cached_factorization(k, bits).factors]
    reals = sum(1 for root in roots if root.imag == 0)
    assert all(isinstance(root, mp.mpc) and root.imag >= 0 for root in roots)
    assert reals == 1 - k % 2
    assert reals + 2 * (len(roots) - reals) == k - 1
    assert roots == sorted(roots, key=lambda z: (z.real, z.imag))


def mirrored_seed(seed):
    """The exact conjugate of a seed; a real seed is an mpf and stays one."""
    return exact_conjugate(seed) if isinstance(seed, mp.mpc) else seed


def assert_conjugate_seeds_give_conjugate_factors(k, bits, monkeypatch):
    """partial_fractions polished from the conjugate of every seed gives,
    factor for factor, the exact conjugate of the kept factors (root, inner
    root and coefficient): what a non-real factor stands for is what the
    lower root's factor would be, bit for bit."""
    kept = cached_factorization(k, bits).factors
    with monkeypatch.context() as patch:
        seed = spectral._seed
        patch.setattr(spectral, "_seed", lambda k, j: mirrored_seed(seed(k, j)))
        mirrored = partial_fractions(k, bits).factors
    assert len(mirrored) == len(kept)
    for upper, lower in zip(kept, mirrored):
        assert all(
            map(
                exact_conjugates,
                (upper.root, upper.inner_root, upper.coefficient),
                (lower.root, lower.inner_root, lower.coefficient),
            )
        )


def test_inner_equation_is_psi_in_z():
    # Exact on Fraction points: f(z) = z^(k-1) (z - 1)^3 psi_k(z + 1/z), and
    # f'(z) is that product differentiated by the product and chain rules.
    for k in range(1, 65):
        psi = build_psi(k)
        for z in (Fraction(2), Fraction(1, 3), Fraction(-3, 2), Fraction(5, 7)):
            x = z + 1 / z
            value = sum(c * x**i for i, c in enumerate(psi))
            slope = sum(i * c * x ** (i - 1) for i, c in enumerate(psi) if i)
            scale = z ** (k - 1) * (z - 1) ** 3
            scale_slope = z ** (k - 2) * (z - 1) ** 2 * ((k - 1) * (z - 1) + 3 * z)
            f, df, power = spectral._inner_equation(k, z)
            assert power == z ** (k - 1), (k, z)
            assert f == scale * value, (k, z)
            assert df == scale_slope * value + scale * slope * (1 - z**-2), (k, z)


def test_inner_roots_k2():
    (factor,) = partial_fractions(2).factors
    with mp.workprec(256):
        assert abs(factor.root - (-3)) < mp.mpf(2) ** -250
        assert abs(factor.inner_root - (-3 + mp.sqrt(5)) / 2) < mp.mpf(2) ** -250
    assert factor.root.imag == 0 and factor.inner_root.imag == 0


def test_inner_root_pair_k3():
    (upper,) = partial_fractions(3).factors
    with mp.workprec(256):
        gamma = mp.mpc(-3, mp.sqrt(7)) / 2
        assert abs(upper.root - gamma) < mp.mpf(2) ** -250
        rho = upper.inner_root
        assert abs(rho) < 1 and rho.imag < 0
        assert abs(rho * rho - gamma * rho + 1) < mp.mpf(2) ** -250


@pytest.mark.parametrize("k", range(1, 9))
def test_root_count_and_residuals(k):
    sf = partial_fractions(k, 256)
    psi = build_psi(k)
    with mp.workprec(288):
        roots = [factor.root for factor in with_conjugates(sf.factors)]
        assert len(roots) == k - 1
        for gamma in roots:
            assert abs(eval_poly(psi, gamma)) <= mp.mpf(2) ** -128


def test_partial_fractions_requires_64_bits():
    with pytest.raises(ParameterError, match="precision_bits must be >= 64"):
        partial_fractions(3, 32)


@pytest.mark.parametrize(
    "k, bits",
    [(48, 256), (64, 256), (96, 256), (128, 256), (192, 256), (256, 256), (256, 512)],
)
def test_partial_fractions_certifies_large_k(k, bits, monkeypatch):
    sf = cached_factorization(k, bits)
    assert all(factor.residual <= residual_tolerance(bits) for factor in sf.factors)
    with working_precision(bits):
        roots = [factor.root for factor in with_conjugates(sf.factors)]
        assert len(roots) == k - 1
        separation = min(
            abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]
        )
    assert separation > separation_tolerance(bits)
    assert_layout(k, bits)
    assert_conjugate_seeds_give_conjugate_factors(k, bits, monkeypatch)


@pytest.mark.parametrize("k, bits", [(3, 64), (8, 64), (32, 256), (128, 256), (256, 512)])
def test_factors_match_horner_on_psi_at_high_precision(k, bits):
    # The oracle reads psi_k(gamma) and psi_k'(gamma) by Horner at the
    # stored gamma, with bits enough that its own rounding, which grows with
    # sum |c_i| |gamma|^i, cannot show.  Each residual bounds |psi_k(gamma)|,
    # and each A = -2k / ((2 - gamma) psi_k'(gamma)) is within 2^-(bits+16)
    # relatively.
    psi = build_psi(k)
    slope = tuple(i * c for i, c in enumerate(psi))[1:]
    with mp.workprec(4 * working_bits(bits) + 4000):
        for factor in cached_factorization(k, bits).factors:
            assert abs(eval_poly(psi, factor.root)) <= factor.residual, factor.root
            oracle = -2 * k / ((2 - factor.root) * eval_poly(slope, factor.root))
            error = abs(factor.coefficient - oracle)
            assert error <= abs(oracle) * mp.mpf(2) ** -(bits + 16), factor.root


@pytest.mark.parametrize("k", WIDE_K)
def test_factors_lie_within_their_bound_of_durand_kerner_roots(k):
    # The oracle runs mpmath's polyroots on psi_k at twice the working
    # precision; every root and conjugate is within its certified bound of
    # its own oracle root.
    for bits in (64, 256, 512):
        reference = psi_roots_reference(build_psi(k), bits)
        with working_precision(bits):
            factors = cached_factorization(k, bits).factors
            roots = [factor.root for factor in with_conjugates(factors)]
            assert len(roots) == len(reference) == k - 1
            for gamma in roots:
                nearest = min(reference, key=lambda z: abs(z - gamma))
                assert abs(nearest - gamma) <= certified_bound(gamma, bits)
                reference.remove(nearest)


def test_a_seed_on_the_unit_circle_is_a_degeneracy_error(monkeypatch):
    # f(1) = 0 exactly, so the polish keeps z = 1 and |rho| = 1.
    monkeypatch.setattr(spectral, "_seed", lambda k, j: mp.mpc(1))
    with pytest.raises(DegeneracyError, match="unit circle"):
        partial_fractions(5, 256)


def test_two_branches_on_one_root_are_a_consistency_error(monkeypatch):
    seed = spectral._seed
    monkeypatch.setattr(spectral, "_seed", lambda k, j: seed(k, 1))
    with pytest.raises(ConsistencyError, match="not numerically distinct"):
        partial_fractions(5, 256)


def test_a_planted_near_duplicate_root_is_a_consistency_error():
    # The pair's partner is not its neighbour in (Re, Im) order: a conjugate
    # of the same real part lies between them.
    bits = 256
    with working_precision(bits):
        root = mp.mpc("-2.5", "0.75")
        near = root + mp.mpf(2) ** -200
        far = mp.mpc("1.5", "0.25")
        spectral._check_separation([root, far], bits)
        with pytest.raises(ConsistencyError, match="not numerically distinct"):
            spectral._check_separation([root, near, far], bits)
        # A non-real root within the tolerance of its own conjugate.
        with pytest.raises(ConsistencyError, match="not numerically distinct"):
            spectral._check_separation([mp.mpc(1, mp.mpf(2) ** -100)], bits)


def test_separation_check_decides_as_comparing_every_pair():
    # Spread roots, real ones among them, and two more planted about the
    # tolerance from two of them: the windowed check raises exactly when
    # some pair of all roots and conjugates is within the tolerance.
    bits = 64
    outcomes = set()
    with working_precision(bits):
        tolerance = separation_tolerance(bits)
        for seed in range(20):
            rng = random.Random(seed)
            roots = [
                mp.mpc(rng.uniform(-3, 3), rng.choice([0, rng.uniform(0, 1)]))
                for _ in range(8)
            ]
            for _ in range(2):
                turn = mp.expjpi(rng.choice([0, 0.5, rng.uniform(0, 1)]))
                moved = rng.choice(roots) + tolerance * rng.uniform(0.5, 1.5) * turn
                roots.append(mp.mpc(moved.real, abs(moved.imag)))
            every = roots + [mp.conj(root) for root in roots if root.imag]
            apart = all(
                abs(a - b) > tolerance for i, a in enumerate(every) for b in every[i + 1:]
            )
            try:
                spectral._check_separation(roots, bits)
            except ConsistencyError:
                assert not apart, seed
            else:
                assert apart, seed
            outcomes.add(apart)
    assert outcomes == {True, False}


def test_unconverged_polish_is_a_precision_error(monkeypatch):
    # A budget of one step keeps the seed, whose |f| is far above 2^(-128).
    monkeypatch.setattr(spectral, "_NEWTON_BUDGET", 1)
    with pytest.raises(PrecisionError, match="did not converge"):
        partial_fractions(5, 256)


def test_partial_fractions_rejects_a_root_off_psi(monkeypatch):
    polish = spectral._polish

    def perturbed(*args):
        with mp.workprec(256 + 32):
            return polish(*args) * (1 + mp.mpf(2) ** -40)

    monkeypatch.setattr(spectral, "_polish", perturbed)
    with pytest.raises(PrecisionError, match=r"\|psi_3\(gamma\)\| exceeds"):
        partial_fractions(3, 256)


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
def test_conjugate_closure(k, monkeypatch):
    for bits in (64, 256, 512):
        assert_conjugate_seeds_give_conjugate_factors(k, bits, monkeypatch)


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
