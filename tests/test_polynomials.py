from fractions import Fraction

import pytest
from mpmath import mp

from cyclepow import ConsistencyError, build_phi, build_psi
from cyclepow import polynomials
from cyclepow.polynomials import basis_term, eval_poly
from cyclepow.errors import ParameterError


def test_basis_term_small_cases():
    assert basis_term(0) == (2,)
    assert basis_term(1) == (0, 1)
    assert basis_term(2) == (-2, 0, 1)
    assert basis_term(3) == (0, -3, 0, 1)


def test_basis_term_rejects_negative():
    with pytest.raises(ParameterError):
        basis_term(-1)


def test_phi_small_cases():
    assert build_phi(1) == (2, -1)
    assert build_phi(2) == (6, -1, -1)  # (2-x)(x+3)
    assert build_phi(3) == (8, 2, -1, -1)  # (2-x)(x^2+3x+4)


def test_phi_is_2k_minus_the_sum_of_the_basis_terms():
    # build_phi makes each P_r once, by one pass of the recurrence.
    for k in range(1, 65):
        expected = [2 * k] + [0] * k
        for r in range(1, k + 1):
            for i, c in enumerate(basis_term(r)):
                expected[i] -= c
        assert build_phi(k) == tuple(expected), k


def test_psi_small_cases():
    assert build_psi(1) == (1,)
    assert build_psi(2) == (3, 1)
    assert build_psi(3) == (4, 3, 1)


@pytest.mark.parametrize("k", range(1, 13))
def test_factorization_exact(k):
    # Two degree-k polynomials that agree at 2k + 3 points are equal.
    phi, psi = build_phi(k), build_psi(k)
    assert (len(phi) - 1, len(psi) - 1) == (k, k - 1)
    assert (phi[-1], psi[-1]) == (-1, 1)  # no trailing zero to strip
    for x in range(-k - 1, k + 2):
        assert eval_poly(phi, x) == (2 - x) * eval_poly(psi, x)


def test_psi_rejects_a_phi_that_2_minus_x_does_not_divide(monkeypatch):
    phi = build_phi(3)
    shifted = (phi[0] + 1, *phi[1:])
    monkeypatch.setattr(polynomials, "build_phi", lambda k: shifted)
    with pytest.raises(ConsistencyError, match="does not divide phi_3"):
        build_psi(3)


@pytest.mark.parametrize("k", range(1, 13))
def test_psi_at_two_square_pyramidal(k):
    assert 6 * eval_poly(build_psi(k), 2) == k * (k + 1) * (2 * k + 1)


@pytest.mark.parametrize("k", range(1, 13))
def test_phi_slope_at_two(k):
    slope = sum(i * c * 2 ** (i - 1) for i, c in enumerate(build_phi(k)) if i)
    assert 6 * slope == -k * (k + 1) * (2 * k + 1)


def test_eval_examples():
    assert eval_poly(build_psi(3), 2) == 14
    assert eval_poly(build_psi(2), -3) == 0
    for k in range(1, 9):
        assert eval_poly(build_phi(k), 2) == 0


def test_eval_preserves_numeric_kind():
    psi = build_psi(3)
    assert isinstance(eval_poly(psi, Fraction(1, 2)), Fraction)
    assert eval_poly(psi, Fraction(1, 2)) == Fraction(23, 4)
    with mp.workprec(128):
        value = eval_poly(psi, mp.mpf("0.5"))
        assert abs(value - mp.mpf(23) / 4) < mp.mpf(2) ** -100


def test_spectrum_arc_positivity():
    # phi_k(2 cos theta) is the Laplacian symbol; it must be positive at
    # every nonzero Fourier mode of every valid graph
    with mp.workprec(128):
        for k in range(1, 7):
            phi = build_phi(k)
            for n in range(2 * k + 1, 33):
                for j in range(1, n):
                    value = eval_poly(phi, 2 * mp.cospi(mp.mpf(2 * j) / n))
                    assert value > 0
