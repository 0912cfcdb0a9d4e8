import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import ctx_mp_python, mp

from cyclepow import (
    GraphSpec,
    ParameterError,
    SimulationBudgetError,
    arboreal_counts,
    cached_factorization,
    hit_closed,
    hit_closed_literal,
    hit_exact,
    hit_simulate,
    hit_spectral,
    tau_det,
    tau_eigen,
    tau_product,
)
from cyclepow.hitting import cosine_table, fixed_eigenvalues, hit_exact_all
from cyclepow.recurrences import (
    correction_ratio,
    correction_ratios,
    fixed_ratios,
    ratio_bits,
)
from cyclepow.spectral import (
    certified_bound,
    partial_fractions,
    residual_tolerance,
    working_precision,
)

from cyclepow import _philox, hitting, recurrences
from oracles import (
    closed_reference,
    dense_laplacian,
    eigen_product_reference,
    exponential_ratios,
    fibonacci,
    gauss_solve,
    reference_walk_times,
    simulate_reference,
    spectral_sum_reference,
    unfolded_eigenvalues,
    with_conjugates,
)


def specs(max_k=5, max_n=24):
    return st.integers(1, max_k).flatmap(
        lambda k: st.integers(2 * k + 1, max_n).map(lambda n: GraphSpec(n, k))
    )


def test_exact_examples():
    assert hit_exact(GraphSpec(7, 1), 3) == 12
    profile = hit_exact_all(GraphSpec(6, 2))
    assert profile == (0, 5, 5, 6, 5, 5)
    assert all(hit_exact(GraphSpec(5, 2), ell) == 4 for ell in range(1, 5))
    assert hit_exact(GraphSpec(9, 3), 0) == 0


def test_exact_rejects_out_of_range():
    with pytest.raises(ParameterError):
        hit_exact(GraphSpec(6, 2), 6)
    with pytest.raises(ParameterError):
        hit_exact(GraphSpec(6, 2), -1)


@given(specs(max_k=4, max_n=18))
@settings(max_examples=40, deadline=None)
def test_exact_matches_plain_gaussian_oracle(spec):
    reduced = [row[1:] for row in dense_laplacian(spec.n, spec.k)[1:]]
    rhs = [spec.degree] * (spec.n - 1)
    expected = gauss_solve(reduced, rhs)
    assert list(hit_exact_all(spec)[1:]) == expected


@given(specs())
@settings(max_examples=40, deadline=None)
def test_exact_symmetry_and_positivity(spec):
    profile = hit_exact_all(spec)
    assert profile[0] == 0
    for ell in range(1, spec.n):
        assert profile[ell] == profile[spec.n - ell]
        assert profile[ell] > 0


def test_k1_is_quadratic():
    for n in (3, 7, 12, 20, 1000):
        profile = hit_exact_all(GraphSpec(n, 1))
        assert all(profile[ell] == ell * (n - ell) for ell in range(n))


def test_k2_fibonacci_form_at_n_1000():
    n = 1000
    for ell in (1, 2, 377, 500, 999):
        expected = Fraction(2, 5) * ell * (n - ell) + Fraction(4, 5) * n * Fraction(
            fibonacci(ell) * fibonacci(n - ell), fibonacci(n)
        )
        assert hit_exact(GraphSpec(n, 2), ell) == expected


def test_eigenvalues_positive_away_from_constant_mode():
    eigenvalues = fixed_eigenvalues(GraphSpec(12, 3), 128)
    assert eigenvalues[0] == 0
    assert all(lam > 0 for lam in eigenvalues[1:])


@pytest.mark.parametrize(
    "graphs, bits",
    [
        ([(n, k) for k in range(1, 9) for n in range(2 * k + 1, 65)], 64),
        ([(16000, 6)], 256),
        ([(8000, 8)], 512),
    ],
    ids=["small", "16000-6", "8000-8"],
)
def test_fixed_eigenvalues_are_the_per_entry_sums(graphs, bits):
    # Lambda_j = 2k C_0 - 2 sum_r C_(jr mod n), entry by entry over the
    # cosine table, at 4 | n and at every other n.
    for n, k in graphs:
        cosines = hitting._fixed_cosines(n, bits)
        expected = tuple(
            2 * k * cosines[0] - 2 * sum(cosines[j * r % n] for r in range(1, k + 1))
            for j in range(n)
        )
        assert fixed_eigenvalues(GraphSpec(n, k), bits) == expected, (n, k)


# Every residue of n mod 8, small and large.
TABLE_SIZES = [*range(3, 71), 97, 98, 100, 104, 1000, 1001, 1002, 1003, 1004, 4096]


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_cosine_table_is_within_guard_bits_of_each_cosine(bits):
    tolerance = 8 * mp.mpf(2) ** -(bits + 32)
    for n in TABLE_SIZES:
        table = cosine_table(n, bits)
        assert len(table) == n
        with mp.workprec(bits + 96):
            for m, value in enumerate(table):
                assert abs(value - mp.cospi(mp.mpf(2 * m) / n)) <= tolerance, (n, m)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_cosine_table_mirrors_exactly(bits):
    for n in TABLE_SIZES:
        table = cosine_table(n, bits)
        assert table[0] == 1
        for m in range(1, n):
            assert table[m] == table[n - m], (n, m)
        if n % 2 == 0:
            for m in range(n // 2 + 1):
                assert table[n // 2 - m] == mp.fneg(table[m], exact=True), (n, m)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_folded_spectral_sum_and_product_match_unfolded_references(bits):
    tolerance = residual_tolerance(bits)
    for n in [*range(3, 20), 97, 98, 100, 104]:
        for k in range(1, min(4, (n - 1) // 2) + 1):
            spec = GraphSpec(n, k)
            for ell in sorted({1, 2, n // 3, n // 2, n - 1}):
                expected = spectral_sum_reference(n, k, ell, bits)
                value = hit_spectral(spec, ell, bits)
                assert abs(value - expected) <= tolerance * expected, (n, k, ell)
            expected = eigen_product_reference(n, k, bits)
            value = tau_eigen(spec, bits)
            assert abs(value - expected) <= tolerance * expected, (n, k)


# Every residue of n mod 8 with k up to 8, and the three layouts near 4096,
# the odd one (the longest rotation) at k = 8.
FIXED_POINT_GRAPHS = [
    *((n, k) for n in range(3, 27) for k in range(1, min(8, (n - 1) // 2) + 1)),
    (4094, 1),
    (4095, 8),
    (4096, 1),
]


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_fixed_point_eigenvalues_are_within_the_derived_bound(bits):
    # fraction_bits derives F so that every Lambda_j * 2^-F is within
    # 2^-(p+4) of lambda_j relatively, p = bits + 32, and tau_eigen's
    # docstring derives 2^-p + N 2^-(p+4) from it for the tree product; at
    # bits + 96 the reference and the conversion of Lambda_j are exact far
    # below that.
    p = bits + 32
    for n, k in FIXED_POINT_GRAPHS:
        spec = GraphSpec(n, k)
        fixed = fixed_eigenvalues(spec, bits)
        fraction_bits = hitting.fraction_bits(n, bits)
        tau = tau_eigen(spec, bits)
        with mp.workprec(bits + 96):
            expected = unfolded_eigenvalues(n, k)
            tolerance = mp.mpf(2) ** -(p + 4)
            assert fixed[0] == 0
            for j in range(1, n):
                error = abs(mp.mpf((fixed[j], -fraction_bits)) - expected[j])
                assert error <= tolerance * expected[j], (n, k, j)
            product = mp.fprod(expected[1:]) / n
            bound = (mp.mpf(2) ** -p + n * tolerance) * product
            assert abs(tau - product) <= bound, (n, k)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_spectral_sum_is_within_the_derived_bound(bits):
    # Far inside certified_bound, 2^(-bits/2) * h: the reference sums every
    # term at bits + 96.
    cases = [
        *(
            (n, k, ell)
            for n in range(17, 25)
            for k in (1, 2, 5, 8)
            if 2 * k < n
            for ell in (1, n // 3, n // 2, n - 1)
        ),
        (1001, 8, 500),
        (1004, 3, 1),
    ]
    for n, k, ell in cases:
        value = hit_spectral(GraphSpec(n, k), ell, bits)
        expected = spectral_sum_reference(n, k, ell, bits + 64)
        with mp.workprec(bits + 96):
            tolerance = mp.mpf(2) ** -(bits + 8) * expected
            assert abs(value - expected) <= tolerance, (n, k, ell)


def test_tables_evaluate_only_the_unmirrored_cosines(monkeypatch):
    calls = []
    for name in ("cospi", "cospi_sinpi"):
        original = getattr(mp, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mp, name, counted)
    # One transcendental call per (n, bits) table, for the octant, quarter
    # and half layouts alike; the public tables and the sum read it.
    for n in (4096, 4098, 4097):
        for bits in (64, 256):
            for cached in (hitting._fixed_cosines, fixed_eigenvalues, cosine_table):
                cached.cache_clear()
            calls.clear()
            cosine_table(n, bits)
            assert len(calls) == 1, (n, bits)
            calls.clear()
            tau_eigen(GraphSpec(n, 3), bits)
            hit_spectral(GraphSpec(n, 3), n // 3, bits)
            assert calls == [], (n, bits)


def test_spectral_sum_reads_eigenvalues_through_the_cached_table(monkeypatch):
    # hit_spectral looks its fixed-point eigenvalue table up by name, once per
    # call, so the table it reads is the one the cache shares.
    calls = []
    original = fixed_eigenvalues

    def counted(spec, precision_bits):
        calls.append((spec, precision_bits))
        return original(spec, precision_bits)

    monkeypatch.setattr(hitting, "fixed_eigenvalues", counted)
    spec = GraphSpec(13, 3)
    hit_spectral(spec, 4, 128)
    assert calls == [(spec, 128)]


@pytest.mark.parametrize("n", [14, 15])
def test_tau_eigen_is_the_product_of_the_table_hit_spectral_reads(n):
    # The exact product of the integer table, rounded once, for the
    # mirrored layouts of even and odd n; the table is built once.
    spec = GraphSpec(n, 3)
    fixed_eigenvalues.cache_clear()
    value = tau_eigen(spec, 128)
    fixed = fixed_eigenvalues(spec, 128)
    fraction_bits = hitting.fraction_bits(n, 128)
    with mp.workprec(2 * (128 + 32)):
        exact = mp.mpf(math.prod(fixed[1:])) / (n << (n - 1) * fraction_bits)
        assert abs(value - exact) <= mp.mpf(2) ** -(128 + 32) * exact
    before = fixed_eigenvalues.cache_info()
    hit_spectral(spec, 3, 128)
    after = fixed_eigenvalues.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_spectral_tables_keep_the_64_most_recent_graphs():
    # The cosine tables of the 64 most recent n, and the eigenvalue table of
    # the latest graph.
    sizes = {hitting._fixed_cosines: 64, fixed_eigenvalues: 1, cosine_table: 64}
    for cached in sizes:
        cached.cache_clear()
    for n in range(7, 7 + 65):
        hit_spectral(GraphSpec(n, 3), 1, 64)
        tau_eigen(GraphSpec(n, 3), 64)
        cosine_table(n, 64)
    for cached, size in sizes.items():
        info = cached.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (size, size, 65)


@pytest.mark.parametrize("n", [0, -4])
def test_cosine_table_rejects_fewer_than_one_vertex(n):
    with pytest.raises(ParameterError, match="n must be >= 1"):
        cosine_table(n, 64)


def test_spectral_examples():
    with mp.workprec(288):
        assert abs(hit_spectral(GraphSpec(6, 2), 1) - 5) <= mp.mpf(2) ** -100
        assert hit_spectral(GraphSpec(6, 2), 0) == 0
        assert abs(hit_spectral(GraphSpec(7, 3), 2) - 6) <= mp.mpf(2) ** -100


def test_closed_examples():
    with mp.workprec(288):
        assert abs(hit_closed(GraphSpec(7, 1), 3, 256) - 12) <= mp.mpf(2) ** -100
        assert abs(hit_closed(GraphSpec(6, 2), 2, 256) - 5) <= mp.mpf(2) ** -100
        assert abs(hit_closed(GraphSpec(7, 3), 1, 256) - 6) <= mp.mpf(2) ** -100


def test_closed_sequence_form_matches():
    with mp.workprec(288):
        for spec in (GraphSpec(9, 2), GraphSpec(11, 3), GraphSpec(13, 4)):
            for ell in range(spec.n):
                a = hit_closed(spec, ell, 256, "exponential")
                b = hit_closed(spec, ell, 256, "sequence")
                assert abs(a - b) <= mp.mpf(2) ** -100 * max(1, abs(a))


@pytest.mark.parametrize("k", [1, 2])
def test_closed_rejects_an_unknown_form_at_every_k(k):
    # psi_1 has no roots, so at k = 1 no correction ratio is ever evaluated.
    # The full-index form is the erratum's, reached only by hit_closed_literal.
    for form in ("bogus", "full-index"):
        with pytest.raises(ParameterError, match=f"^unknown form '{form}'$"):
            hit_closed(GraphSpec(7, k), 3, form=form)


def test_closed_all_is_bit_identical_to_each_ell():
    for spec, bits in (
        (GraphSpec(7, 1), 256), (GraphSpec(13, 4), 256), (GraphSpec(30, 3), 128)
    ):
        assert hitting.hit_closed_all(spec, bits) == tuple(
            hit_closed(spec, ell, bits) for ell in range(spec.n)
        )
    spec = GraphSpec(9, 2)
    default = tuple(hit_closed(spec, ell) for ell in range(spec.n))
    assert hitting.hit_closed_all(spec) == default


def test_closed_literal_reproduces_known_deviation():
    spec = GraphSpec(6, 2)
    with mp.workprec(256):
        literal = hit_closed_literal(spec, 1)
        assert abs(literal - mp.mpf(23) / 6) <= mp.mpf(2) ** -90
        assert abs(literal - 5) > 1


def full_index_sum(spec, ell, bits):
    """The closed-form sum over full-index sequence ratios, spelled out over
    every root, both members of each conjugate pair included, and added up
    at twice the working precision."""
    sf = cached_factorization(spec.k, bits)
    quadratic = Fraction(sf.pole_coefficient, 2) * ell * (spec.n - ell)
    with mp.workprec(2 * (bits + 32)):
        corrections = mp.mpc(0)
        for factor in with_conjugates(sf.factors):
            corrections += factor.coefficient * correction_ratio(
                factor, ell, spec.n, "full-index", bits
            )
        corrections *= spec.n
        return mp.mpf(quadratic.numerator) / quadratic.denominator + mp.re(
            corrections
        )


def closed_tolerance(value, bits):
    """The derived bound of a closed value against its reference: 2^-(p+7)
    relatively before the one rounding to the working precision p, and
    2^-p for that rounding."""
    with working_precision(bits):
        p = mp.prec
    return (mp.mpf(2) ** -p + mp.mpf(2) ** -(p + 7)) * max(1, abs(value))


def test_closed_literal_is_the_closed_sum_over_full_index_ratios():
    # hit_closed_literal adds the same ratios on fixed-point integers and
    # rounds once to the working precision.
    for spec, bits in (
        (GraphSpec(6, 2), 256), (GraphSpec(13, 4), 64), (GraphSpec(30, 3), 256)
    ):
        for ell in range(spec.n):
            value = hit_closed_literal(spec, ell, bits)
            expected = full_index_sum(spec, ell, bits)
            with mp.workprec(2 * (bits + 32)):
                tolerance = closed_tolerance(expected, bits)
                assert abs(value - expected) <= tolerance, (spec, ell)


CLOSED_SIZES = [*range(3, 61), 97, 128, 200]


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_fixed_point_closed_form_is_within_the_derived_bound(bits):
    # Every exponential-form ratio, as fixed-point integers at the F of
    # recurrences.ratio_bits, lies within 2^-(p+8) / (N max(1, |A|)) of the
    # ratio of the factor's rho, and every closed value within
    # closed_tolerance of the sum over every root, both against mpmath at
    # twice the precision; the sequence form's closed values at the least
    # and largest N <= 60.
    with working_precision(bits):
        p = mp.prec
    for k in range(2, 9):
        sf = cached_factorization(k, bits)
        for n in (n for n in CLOSED_SIZES if n > 2 * k):
            spec = GraphSpec(n, k)
            tables = [exponential_ratios(factor, n, bits) for factor in sf.factors]
            for factor, expected in zip(sf.factors, tables):
                fraction_bits = ratio_bits(factor, n, bits)
                fixed = fixed_ratios(factor, range(n + 1), n, fraction_bits)
                with mp.workprec(2 * (bits + 32)):
                    scale = n * max(1, abs(factor.coefficient))
                    bound = mp.mpf(2) ** -(p + 8) / scale
                    for ell, ((x, y), ratio) in enumerate(zip(fixed, expected)):
                        value = mp.mpc(
                            mp.mpf((x, -fraction_bits)), mp.mpf((y, -fraction_bits))
                        )
                        assert abs(value - ratio) <= bound, (k, n, ell)
            cases = [(hitting.hit_closed_all(spec, bits), tables)]
            if n in (2 * k + 1, 60):
                cases.append((
                    [hit_closed(spec, ell, bits, "sequence") for ell in range(n)],
                    [correction_ratios(f, n, "sequence", bits) for f in sf.factors],
                ))
            for values, ratios in cases:
                reference = closed_reference(sf, n, ratios)
                with mp.workprec(2 * (bits + 32)):
                    for ell, (value, expected) in enumerate(zip(values, reference)):
                        tolerance = closed_tolerance(expected, bits)
                        assert abs(value - expected) <= tolerance, (k, n, ell)


def test_exponential_ratios_and_closed_form_run_on_integers(monkeypatch):
    # No mpmath complex power or division runs in the exponential-form
    # ratio tables or in hit_closed_all, and each converts every factor's
    # rho once.
    complex_ops = []
    for name in ("mpc_div", "mpc_div_mpf", "mpc_pow", "mpc_pow_int", "mpc_pow_mpf"):
        original = getattr(ctx_mp_python, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            complex_ops.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ctx_mp_python, name, counted)
    conversions = []
    fixed = recurrences.to_fixed

    def converted(value, bits):
        conversions.append(value)
        return fixed(value, bits)

    monkeypatch.setattr(recurrences, "to_fixed", converted)
    for spec in (GraphSpec(20, 3), GraphSpec(41, 8)):
        factors = cached_factorization(spec.k, 256).factors
        rhos = [factor.inner_root for factor in factors]
        complex_ops.clear()
        conversions.clear()
        for factor in factors:
            correction_ratios(factor, spec.n, "exponential", 256)
        hitting.hit_closed_all(spec, 256)
        assert complex_ops == [], spec
        assert [rho for rho in conversions if any(rho is r for r in rhos)] == 2 * rhos
        # The spies see the sequence form's complex divisions.
        correction_ratio(factors[0], 1, spec.n, "sequence", 256)
        assert "mpc_div" in complex_ops


def total_by_eigenvalues(spec, bits):
    """2kN * sum of 1/lambda_j over the nonzero modes: summing the spectral
    sum over ell sums each 1 - cos(2 pi j ell/N) to N.  1/lambda_j is
    2^F / Lambda_j for the fixed-point table."""
    one = mp.ldexp(1, hitting.fraction_bits(spec.n, bits))
    fixed = fixed_eigenvalues(spec, bits)
    return spec.degree * spec.n * mp.fsum(one / lam for lam in fixed[1:])


def total_by_factors(spec, bits):
    """N [B (N^2 - 1)/12 + sum_a A_a (N (1 + rho^N) / ((1/rho - rho)(1 - rho^N))
    - 1/(gamma - 2))]: the closed form summed over ell, each pair's factor
    counting as twice its real part."""
    sf = cached_factorization(spec.k, bits)
    n = spec.n
    quadratic = sf.pole_coefficient * (n * n - 1) / 12
    total = mp.mpf(quadratic.numerator) / quadratic.denominator
    for factor in sf.factors:
        rho, gamma = factor.inner_root, factor.root
        term = factor.coefficient * (
            n * (1 + rho**n) / ((1 / rho - rho) * (1 - rho**n)) - 1 / (gamma - 2)
        )
        total += (2 if gamma.imag else 1) * mp.re(term)
    return n * total


@pytest.mark.parametrize("k", range(1, 9))
def test_sum_of_all_hitting_times(k):
    bits = 256
    for n in range(2 * k + 1, 61):
        spec = GraphSpec(n, k)
        exact = sum(hit_exact_all(spec))
        with working_precision(bits):
            exact = mp.mpf(exact.numerator) / exact.denominator
            bound = certified_bound(exact, bits)
            for total in (total_by_eigenvalues(spec, bits), total_by_factors(spec, bits)):
                assert abs(total - exact) <= bound, (n, total, exact)


def _counted_trees(spec, bits):
    counts = arboreal_counts(spec, 5, precision_bits=bits)
    assert counts.tree_count == tau_det(spec)
    return [
        (counts.tree_count_eigen, counts.tree_count),
        (counts.tree_count_product, counts.tree_count),
    ]


# Each analytic route with `precision_bits` as a keyword, as (value,
# reference) pairs over the ells of a graph: the exact solve or determinant,
# or for the erratum variant its own full-index sum.
ANALYTIC_ROUTES = {
    "hit_spectral": lambda spec, bits: [
        (hit_spectral(spec, ell, precision_bits=bits), hit_exact(spec, ell))
        for ell in range(spec.n)
    ],
    "hit_closed": lambda spec, bits: [
        (hit_closed(spec, ell, precision_bits=bits), hit_exact(spec, ell))
        for ell in range(spec.n)
    ],
    "hit_closed_all": lambda spec, bits: list(
        zip(hitting.hit_closed_all(spec, precision_bits=bits), hit_exact_all(spec))
    ),
    "hit_closed_literal": lambda spec, bits: [
        (hit_closed_literal(spec, ell, precision_bits=bits),
         full_index_sum(spec, ell, bits))
        for ell in range(spec.n)
    ],
    "tau_eigen": lambda spec, bits: [
        (tau_eigen(spec, precision_bits=bits), tau_det(spec))
    ],
    "tau_product": lambda spec, bits: [
        (tau_product(spec, precision_bits=bits), tau_det(spec))
    ],
    "arboreal_counts": _counted_trees,
}


@pytest.mark.parametrize("spec", [GraphSpec(12, 3), GraphSpec(13, 4)], ids=repr)
@pytest.mark.parametrize("route", ANALYTIC_ROUTES)
def test_every_analytic_route_takes_precision_bits(route, spec):
    bits = 128
    pairs = ANALYTIC_ROUTES[route](spec, bits)
    with mp.workprec(bits + 32):
        for value, reference in pairs:
            if isinstance(reference, (int, Fraction)):
                reference = mp.mpf(reference.numerator) / reference.denominator
            assert abs(value - reference) <= certified_bound(reference, bits)


@given(
    st.integers(1, 8)
    .flatmap(lambda k: st.builds(GraphSpec, st.integers(2 * k + 1, 300), st.just(k)))
    .flatmap(lambda spec: st.tuples(st.just(spec), st.integers(0, spec.n - 1))),
    st.sampled_from([64, 96, 256]),
)
@settings(max_examples=60, deadline=None)
def test_analytic_values_lie_within_their_certified_bound(case, bits):
    spec, ell = case
    exact, tau = hit_exact(spec, ell), tau_det(spec)
    pairs = [
        (hit_spectral(spec, ell, bits), exact),
        (hit_closed(spec, ell, bits, "exponential"), exact),
        (hit_closed(spec, ell, bits, "sequence"), exact),
        (tau_eigen(spec, bits), tau),
        (tau_product(spec, bits), tau),
    ]
    with mp.workprec(bits + 32):
        for value, reference in pairs:
            reference = mp.mpf(reference.numerator) / reference.denominator
            assert abs(value - reference) <= certified_bound(value, bits)


@pytest.mark.parametrize("route", ANALYTIC_ROUTES)
def test_every_analytic_route_rejects_precision_below_the_floor(route):
    with pytest.raises(ParameterError, match="precision_bits must be >= 64"):
        ANALYTIC_ROUTES[route](GraphSpec(12, 3), 63)


@pytest.mark.parametrize(
    "call, args",
    [(hit_spectral, (GraphSpec(12, 3), 0, 63)), (partial_fractions, (1, 63))],
    ids=["hit_spectral-at-ell-0", "partial_fractions-at-k-1"],
)
def test_the_floor_holds_where_a_route_returns_early(call, args):
    # ell = 0 builds no table and psi_1 has no roots; both still check
    with pytest.raises(ParameterError, match="precision_bits must be >= 64"):
        call(*args)


CACHED = {
    "cached_factorization": (cached_factorization, (3, 96)),
    "_fixed_cosines": (hitting._fixed_cosines, (12, 96)),
    "fixed_eigenvalues": (fixed_eigenvalues, (GraphSpec(12, 3), 96)),
    "cosine_table": (cosine_table, (12, 96)),
    "hit_exact_all": (hit_exact_all, (GraphSpec(12, 3),)),
}


@pytest.mark.parametrize("name", CACHED)
def test_cached_function_has_one_key_per_value(name):
    cached, args = CACHED[name]
    cached(*args)
    before = cached.cache_info()
    cached(*args)
    after = cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    *head, last = args
    keyword = list(inspect.signature(cached).parameters)[-1]
    with pytest.raises(TypeError):
        cached(*head, **{keyword: last})
    if head:
        with pytest.raises(TypeError):
            cached(*head)


@given(specs(max_k=4, max_n=20), st.data())
@settings(max_examples=30, deadline=None)
def test_three_methods_agree(spec, data):
    ell = data.draw(st.integers(0, spec.n - 1))
    exact = hit_exact(spec, ell)
    with mp.workprec(288):
        reference = mp.mpf(exact.numerator) / exact.denominator
        scale = max(1, abs(reference))
        assert abs(hit_spectral(spec, ell, 256) - reference) <= 1e-10 * scale
        assert abs(hit_closed(spec, ell, 256) - reference) <= 1e-10 * scale


def test_simulate_trivial_and_validation():
    assert hit_simulate(GraphSpec(6, 2), 0, 10, 1) == (0.0, 0.0)
    with pytest.raises(ParameterError):
        hit_simulate(GraphSpec(6, 2), 1, 0, 1)
    with pytest.raises(ParameterError):
        hit_simulate(GraphSpec(6, 2), 1, 10, 2**64)


def test_simulate_agrees_with_oracle():
    result = hit_simulate(GraphSpec(6, 2), 3, 20_000, 12345)
    assert abs(result.mean - 6) <= 4 * result.stderr


def test_simulate_deterministic_per_seed():
    a = hit_simulate(GraphSpec(8, 2), 3, 500, 99)
    b = hit_simulate(GraphSpec(8, 2), 3, 500, 99)
    c = hit_simulate(GraphSpec(8, 2), 3, 500, 100)
    assert a == b
    assert a != c


def test_simulate_step_cap():
    with pytest.raises(SimulationBudgetError):
        hit_simulate(GraphSpec(24, 1), 23, 1000, 7, step_cap=500)


def test_simulate_rejects_more_walks_than_steps_before_walking(monkeypatch):
    # every walk to ell != 0 takes a step, so 6 walks overrun a cap of 5
    def walk(*args):
        raise AssertionError("walked a run that cannot finish")

    monkeypatch.setattr(_philox, "walk_times", walk)
    with pytest.raises(SimulationBudgetError, match="below 6 walks"):
        hit_simulate(GraphSpec(9, 2), 1, 6, 0, step_cap=5)
    assert hit_simulate(GraphSpec(9, 2), 0, 6, 0, step_cap=5) == (0.0, 0.0)


# 2k = 3 * 2**13: numpy rejects a uint32 with probability 2**-18, often
# enough that some lockstep windows of these long walks hold a rejection.
REJECTING = GraphSpec(3 * 2**13 + 1, 3 * 2**12)


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.integers(2 * k + 1, 24).map(lambda n: GraphSpec(n, k))
    ),
    st.sampled_from(["one", "half", "last"]),
    st.integers(1, 300),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=40, deadline=None)
def test_simulate_matches_per_walk_reference(spec, where, walks, seed):
    ell = {"one": 1, "half": spec.n // 2, "last": spec.n - 1}[where]
    assert tuple(hit_simulate(spec, ell, walks, seed)) == simulate_reference(
        spec, ell, walks, seed
    )


def test_simulate_matches_reference_across_slices():
    walks = 2 * _philox._SLICE_WALKS + 3
    spec = GraphSpec(9, 2)
    assert tuple(hit_simulate(spec, 4, walks, 5)) == simulate_reference(
        spec, 4, walks, 5
    )


# 2k = 3 * 2**17: numpy rejects a uint32 with probability 2**-14, about 24
# times in a walk from 0 to 1, and some windows hold two or more rejections.
OFTEN_REJECTING = GraphSpec(3 * 2**17 + 1, 3 * 2**16)


@pytest.mark.parametrize(
    "spec, walks, seed, most", [(REJECTING, 20, 1, 1), (OFTEN_REJECTING, 8, 0, 2)]
)
def test_simulate_skips_rejected_draws_exactly(monkeypatch, spec, walks, seed, most):
    window_most = []
    bounded_draws = _philox._bounded_draws

    def spy(words, bound):
        draws, rejected = bounded_draws(words, bound)
        window_most.append(int(rejected.sum(axis=1).max()))
        return draws, rejected

    monkeypatch.setattr(_philox, "_bounded_draws", spy)
    times = _philox.walk_times(spec, 1, walks, seed, 10**9)
    assert max(window_most) >= most  # some window held `most` rejected draws
    assert np.array_equal(times, reference_walk_times(spec, 1, walks, seed))


@pytest.mark.parametrize(
    "spec, ell, walks",
    [(GraphSpec(50, 2), 1, 6000), (GraphSpec(50, 2), 1, 300),
     (GraphSpec(12, 2), 1, 1000)],
)
def test_simulate_windows_stay_within_each_walks_progress(
    monkeypatch, spec, ell, walks
):
    # 2k = 4 never rejects a draw.  A walk that has used U blocks without a
    # hit has taken over 8U steps, and its next window is at most max(1, U)
    # blocks, so the draws made stay below twice the steps plus one block of
    # 8 draws per walk.  Windows sized by the walk count alone drew 63,816
    # values for the 10,787 steps of 300 walks at (50, 2, 1).
    made = []
    bounded_draws = _philox._bounded_draws

    def spy(words, bound):
        draws, rejected = bounded_draws(words, bound)
        made.append(draws.size)
        return draws, rejected

    monkeypatch.setattr(_philox, "_bounded_draws", spy)
    steps = int(_philox.walk_times(spec, ell, walks, 12345, 10**9).sum())
    assert sum(made) < 2 * steps + 8 * walks


@pytest.mark.parametrize(
    "spec, ell, walks, seed",
    [(GraphSpec(24, 1), 23, 50, 7), (GraphSpec(11, 3), 5, 5000, 8),
     (REJECTING, 1, 20, 1), (REJECTING, 1, 1, 3)],
)
def test_simulate_step_cap_is_total_walk_time(spec, ell, walks, seed):
    total = int(reference_walk_times(spec, ell, walks, seed).sum())
    hit_simulate(spec, ell, walks, seed, step_cap=total)
    with pytest.raises(SimulationBudgetError, match=r"after \d+ complete walks"):
        hit_simulate(spec, ell, walks, seed, step_cap=total - 1)


def test_simulate_beyond_32_bit_draws_stops_at_the_step_cap():
    # 2k = 2**32 + 2: every draw takes a whole uint64 word.  A walk from 0 to
    # 1 averages billions of steps, so a small cap ends it.
    with pytest.raises(SimulationBudgetError, match="after 0 complete walks"):
        hit_simulate(GraphSpec(2**32 + 3, 2**31 + 1), 1, 3, 0, step_cap=10**4)


def test_simulate_refuses_walks_that_would_overflow_int64(monkeypatch):
    walk_times = _philox.walk_times

    def walk(*args):
        raise AssertionError("walked a run that overflows")

    monkeypatch.setattr(_philox, "walk_times", walk)
    for spec in (GraphSpec(2**63 + 1, 1), GraphSpec(2**63 - 2**15, 1),
                 GraphSpec(2**62, 2**47)):
        with pytest.raises(ParameterError, match="too large to simulate"):
            hit_simulate(spec, 1, 1, 0)
    # n + 2**15 k = 2**63 - 1 is simulated, exactly; walk 2 of seed 4 spends
    # 8213 steps at or below 0, wrapped just under n, over two windows.
    monkeypatch.setattr(_philox, "walk_times", walk_times)
    spec = GraphSpec(2**63 - 2**15 - 1, 1)
    assert tuple(hit_simulate(spec, 1, 4, 4)) == simulate_reference(spec, 1, 4, 4)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 7])
@pytest.mark.parametrize("start", [0, 999, 2**32 - 2, 2**40 + 3, 2**64 - 11])
def test_philox_blocks_match_numpy(seed, start):
    # Several walks against several counters, as walk_times broadcasts them.
    # A counter of c makes the next block c + 1, as later windows rely on, so
    # Philox(counter=start) emits the blocks for start + 1, ...  Past 2**32
    # the high half of the round-0 product M0 * c is nonzero, and seeds 0 and
    # 2**64 - 1 wrap the key bump.
    walks = np.array([0, 12345, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    counters = np.arange(start + 1, start + 10, dtype=np.uint64)
    blocks = _philox._philox_blocks(counters, seed, walks[:, None])
    assert blocks.shape == (walks.size, counters.size, 4)
    for walk, row in zip(walks, blocks):
        key = np.array([seed, walk], dtype=np.uint64)
        fresh = np.random.Philox(key=key, counter=start).random_raw(4 * counters.size)
        assert np.array_equal(row.reshape(-1), fresh)
    one_walk = _philox._philox_blocks(counters, seed, walks[1:2])
    assert np.array_equal(one_walk, blocks[1])
    swapped = _philox._philox_blocks(counters[:, None], seed, walks)
    assert np.array_equal(swapped, blocks.transpose(1, 0, 2))


@pytest.mark.parametrize(
    "bound", [3 * 2**30, 6, 8, 2**32, 2**32 + 2, 3 * 2**40 + 5, 2**62 + 7]
)
def test_bounded_draws_match_generator_integers(bound):
    key = np.array([11, 3], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(4000)
    draws, rejected = _philox._bounded_draws(words, bound)
    if bound in (3 * 2**30, 2**62 + 7):
        # 2**32 mod 3 * 2**30 = 2**30 and 2**64 mod (2**62 + 7) = 2**62 - 21:
        # about a quarter of the draws are rejected.
        assert 0.2 < rejected.mean() < 0.3
    elif bound & (bound - 1) == 0:
        assert not rejected.any()
    # one draw per uint32 up to 2**32, one per uint64 word above
    assert draws.size == words.size * (2 if bound <= 2**32 else 1)
    accepted = draws[~rejected]
    expected = np.random.Generator(np.random.Philox(key=key)).integers(
        0, bound, size=accepted.size
    )
    assert np.array_equal(accepted, expected)
    # The uint32 halves are a little-endian view, so a big-endian copy of the
    # words gives the same draws and mask on any host.
    swapped_draws, swapped_rejected = _philox._bounded_draws(words.astype(">u8"), bound)
    assert np.array_equal(swapped_draws, draws)
    assert np.array_equal(swapped_rejected, rejected)
