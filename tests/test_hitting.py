import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from cyclepow import (
    GraphSpec,
    ParameterError,
    PrecisionError,
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
from cyclepow.hitting import cosine_table, hit_exact_all, laplacian_eigenvalues
from cyclepow.recurrences import full_index_ratio
from cyclepow.spectral import certified_bound, residual_tolerance

from cyclepow import _philox, hitting
from oracles import (
    dense_laplacian,
    eigen_product_reference,
    fibonacci,
    gauss_solve,
    reference_walk_times,
    simulate_reference,
    spectral_sum_reference,
    unfolded_eigenvalues,
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
    eigenvalues = laplacian_eigenvalues(GraphSpec(12, 3), 128)
    assert eigenvalues[0] == 0
    assert all(lam > 0 for lam in eigenvalues[1:])


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
def test_eigenvalues_match_the_unfolded_sum(bits):
    for n in [*range(3, 20), 97, 98, 100, 104]:
        for k in range(1, min(4, (n - 1) // 2) + 1):
            eigenvalues = laplacian_eigenvalues(GraphSpec(n, k), bits)
            tolerance = 32 * k * mp.mpf(2) ** -(bits + 32)
            with mp.workprec(bits + 96):
                expected = unfolded_eigenvalues(n, k)
            assert len(eigenvalues) == n
            for j in range(n):
                assert abs(eigenvalues[j] - expected[j]) <= tolerance, (n, k, j)


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


def test_tables_evaluate_only_the_unmirrored_cosines(monkeypatch):
    calls = []
    for name in ("cospi", "cospi_sinpi"):
        original = getattr(mp, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mp, name, counted)
    # One octant, one quarter and one half period of mp calls.
    limits = {4096: 4096 // 8 + 1, 4098: 4098 // 4 + 1, 4097: 4097 // 2 + 1}
    for n, limit in limits.items():
        hitting.cosine_table.cache_clear()
        hitting.laplacian_eigenvalues.cache_clear()
        calls.clear()
        hitting.cosine_table(n, 64)
        assert 0 < len(calls) <= limit, n
        calls.clear()
        hit_spectral(GraphSpec(n, 3), n // 3, 64)
        assert calls == [], n


def test_spectral_sum_reads_eigenvalues_through_the_public_table(monkeypatch):
    # A profiler that wraps the public functions attributes the eigenvalue
    # table to laplacian_eigenvalues only if hit_spectral calls it by name.
    calls = []
    original = hitting.laplacian_eigenvalues

    def counted(spec, precision_bits):
        calls.append((spec, precision_bits))
        return original(spec, precision_bits)

    monkeypatch.setattr(hitting, "laplacian_eigenvalues", counted)
    spec = GraphSpec(13, 3)
    hit_spectral(spec, 4, 128)
    assert calls == [(spec, 128)]


def test_tau_eigen_is_the_product_of_the_table_hit_spectral_reads():
    spec = GraphSpec(14, 3)
    hitting.laplacian_eigenvalues.cache_clear()
    value = tau_eigen(spec, 128)
    with mp.workprec(160):
        expected = mp.fprod(laplacian_eigenvalues(spec, 128)[1:]) / spec.n
    assert value == expected
    before = hitting.laplacian_eigenvalues.cache_info()
    hit_spectral(spec, 3, 128)
    after = hitting.laplacian_eigenvalues.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_spectral_tables_keep_the_64_most_recent_graphs():
    hitting.cosine_table.cache_clear()
    hitting.laplacian_eigenvalues.cache_clear()
    for n in range(7, 7 + 65):
        hit_spectral(GraphSpec(n, 3), 1, 64)
    for cached in (hitting.cosine_table, hitting.laplacian_eigenvalues):
        info = cached.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (64, 64, 65)


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
    with pytest.raises(ParameterError, match="^unknown form 'bogus'$"):
        hit_closed(GraphSpec(7, k), 3, form="bogus")


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
    """The closed-form sum over full-index sequence ratios, spelled out."""
    sf = cached_factorization(spec.k, bits)
    quadratic = Fraction(sf.pole_coefficient, 2) * ell * (spec.n - ell)
    with mp.workprec(bits + 32):
        corrections = mp.mpc(0)
        for factor in sf.factors:
            corrections += factor.coefficient * full_index_ratio(
                factor, ell, spec.n, bits
            )
        corrections *= spec.n
        return mp.mpf(quadratic.numerator) / quadratic.denominator + mp.re(
            corrections
        )


def test_closed_literal_is_the_closed_sum_over_full_index_ratios():
    for spec, bits in (
        (GraphSpec(6, 2), 256), (GraphSpec(13, 4), 64), (GraphSpec(30, 3), 256)
    ):
        for ell in range(spec.n):
            assert hit_closed_literal(spec, ell, bits) == full_index_sum(
                spec, ell, bits
            )


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
    .flatmap(lambda k: st.builds(GraphSpec, st.integers(2 * k + 1, 80), st.just(k)))
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
    # hit_spectral's first call is at ell = 0, which builds no table
    with pytest.raises(ParameterError, match="precision_bits must be >= 64"):
        ANALYTIC_ROUTES[route](GraphSpec(12, 3), 63)


CACHED = {
    "cached_factorization": (cached_factorization, (3, 96)),
    "cosine_table": (cosine_table, (12, 96)),
    "laplacian_eigenvalues": (laplacian_eigenvalues, (GraphSpec(12, 3), 96)),
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


def test_closed_literal_rejects_a_nonreal_correction_sum(monkeypatch):
    monkeypatch.setattr(hitting, "full_index_ratio", lambda *args: mp.mpc(0, 1))
    with pytest.raises(PrecisionError, match="nonreal residue"):
        hit_closed_literal(GraphSpec(9, 2), 1)


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


def test_simulate_rejected_draws_fall_back_exactly(monkeypatch):
    redone = []
    walk_on = _philox._walk_on

    def spy(*args):
        redone.append(args[3])
        return walk_on(*args)

    monkeypatch.setattr(_philox, "_walk_on", spy)
    result = hit_simulate(REJECTING, 1, 20, 1)
    assert redone
    assert tuple(result) == simulate_reference(REJECTING, 1, 20, 1)


def test_fallback_walk_overruns_a_budget_of_whole_draw_batches(monkeypatch):
    # Seed 3: the first lockstep window of walk 0 holds a rejected draw, so
    # the whole walk (10497 steps) runs on its own Generator, 64 draws at a
    # time, with the full step cap as its budget.  A cap of 164 * 64 steps
    # ends exactly on a batch boundary one step short of the hit; the walk
    # must still overrun it instead of stopping at the boundary.
    total = int(reference_walk_times(REJECTING, 1, 1, 3)[0])
    cap = 64 * ((total - 1) // 64)
    assert (total, cap) == (10497, 10496)
    allowances = []
    walk_on = _philox._walk_on

    def spy(*args):
        allowances.append(args[-1])
        return walk_on(*args)

    monkeypatch.setattr(_philox, "_walk_on", spy)
    with pytest.raises(SimulationBudgetError):
        hit_simulate(REJECTING, 1, 1, 3, step_cap=cap)
    assert allowances == [cap]
    assert hit_simulate(REJECTING, 1, 1, 3, step_cap=total) == (total, 0.0)


@pytest.mark.parametrize(
    "spec, ell, walks, seed",
    [(GraphSpec(24, 1), 23, 50, 7), (GraphSpec(11, 3), 5, 5000, 8),
     (REJECTING, 1, 20, 1)],
)
def test_simulate_step_cap_is_total_walk_time(spec, ell, walks, seed):
    total = int(reference_walk_times(spec, ell, walks, seed).sum())
    hit_simulate(spec, ell, walks, seed, step_cap=total)
    with pytest.raises(SimulationBudgetError, match=r"after \d+ complete walks"):
        hit_simulate(spec, ell, walks, seed, step_cap=total - 1)


@pytest.mark.parametrize("seed, walk", [(0, 0), (2**64 - 1, 12345), (7, 2**64 - 1)])
def test_philox_blocks_match_numpy(seed, walk):
    key = np.array([seed, walk], dtype=np.uint64)
    walks = np.array([walk], dtype=np.uint64)
    fresh = np.random.Philox(key=key).random_raw(4 * 9)
    blocks = _philox._philox_blocks(np.arange(1, 10, dtype=np.uint64), seed, walks)
    assert np.array_equal(blocks.reshape(-1), fresh)
    # A counter of c makes the next block c + 1, as the fallback relies on.
    later = np.random.Philox(key=key, counter=1000).random_raw(4 * 3)
    blocks = _philox._philox_blocks(np.arange(1001, 1004, dtype=np.uint64), seed, walks)
    assert np.array_equal(blocks.reshape(-1), later)


@pytest.mark.parametrize("bound", [3 * 2**30, 6, 8, 2**32, 2**32 + 2])
def test_bounded_draws_match_generator_integers(bound):
    key = np.array([11, 3], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(4000)
    draws, rejected = _philox._bounded_draws(words, bound)
    if bound == 3 * 2**30:
        # 2**32 mod 3 * 2**30 = 2**30: a quarter of the uint32s are rejected.
        assert 0.2 < rejected.mean() < 0.3
    elif bound & (bound - 1) == 0:
        assert not rejected.any()
    elif bound > 2**32:
        # numpy draws from whole uint64 words here, so nothing is kept.
        assert rejected.all()
    accepted = draws[~rejected]
    expected = np.random.Generator(np.random.Philox(key=key)).integers(
        0, bound, size=accepted.size
    )
    assert np.array_equal(accepted, expected)
