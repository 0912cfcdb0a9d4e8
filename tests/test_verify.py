import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from mpmath import mp

from cyclepow import ParameterError, hitting, run_verification, verify


def test_run_verification_small_bounds_all_pass():
    results = run_verification(kmax=2, nmax=10)
    ids = [r.check_id for r in results]
    assert len(ids) == len(set(ids))
    assert all(r.passed for r in results)
    assert any(r.check_id == "hitting-oracle-spectral" for r in results)
    assert any(r.check_id == "hitting-oracle-closed" for r in results)


def test_ratio_tables_are_built_once_per_run(monkeypatch):
    real = verify.correction_ratios
    built = Counter()

    def counted(factor, n, form, bits):
        built[factor, n, form, bits] += 1
        return real(factor, n, form, bits)

    monkeypatch.setattr(verify, "correction_ratios", counted)
    run_verification(kmax=3, nmax=14, precision_bits=128)
    assert len(built) > 0
    assert set(built.values()) == {1}
    assert verify._ratio_table.cache_info().currsize == 0


def test_ratio_memo_is_released_after_its_last_reader(monkeypatch):
    sizes = {}

    def spied(check):
        def cases(kmax, nmax, bits):
            sizes[check.check_id] = verify._ratio_table.cache_info().currsize
            yield from check.cases(kmax, nmax, bits)

        return dataclasses.replace(check, cases=cases)

    monkeypatch.setattr(verify, "_CHECKS", [spied(c) for c in verify._CHECKS])
    run_verification(kmax=3, nmax=14, precision_bits=128)
    order = list(sizes)
    last = order.index("resolvent-periodization")
    assert sizes["resolvent-periodization"] > 0
    assert order[last + 1:] and all(sizes[i] == 0 for i in order[last + 1:])


def test_erratum_fixtures_are_informational():
    results = run_verification(kmax=2, nmax=8)
    erratum = [r for r in results if r.informational]
    assert {r.check_id for r in erratum} == {
        "erratum-full-index-ratio",
        "erratum-doubled-index-form",
    }
    for fixture in erratum:
        assert fixture.passed  # informational checks never fail the run
        assert fixture.statistic >= 1.0
        assert "3.83" in fixture.description


def test_erratum_fixtures_absent_below_their_range():
    results = run_verification(kmax=1, nmax=12)
    assert not any(r.informational for r in results)


def test_bounds_validation():
    with pytest.raises(ParameterError):
        run_verification(kmax=0, nmax=10)
    with pytest.raises(ParameterError):
        run_verification(kmax=9, nmax=40)
    with pytest.raises(ParameterError):
        run_verification(kmax=3, nmax=6)


def fold(cases, comparison="<=", threshold=0.0, informational=False):
    """Run the verify runner on one synthetic row yielding `cases`."""
    check = verify._Check(
        "synthetic", "synthetic row", threshold, comparison, informational,
        lambda kmax, nmax, bits: iter(cases),
    )
    return verify._fold(check, 1, 3, 64)


NAN = float("nan")


def test_all_zero_max_row_names_no_case():
    result = fold([(0.0, "a"), (0.0, "b")])
    assert (result.cases, result.statistic, result.worst_case) == (2, 0.0, "")
    assert result.passed


def test_first_of_equal_maxima_wins():
    result = fold([(1.0, "a"), (2.0, "b"), (2.0, "c"), (0.5, "d")], threshold=5.0)
    assert (result.statistic, result.worst_case, result.passed) == (2.0, "b", True)
    assert not fold([(1.0, "a")], threshold=0.5).passed


def test_min_row_keeps_first_smallest():
    result = fold([(3.0, "a"), (1.0, "b"), (1.0, "c"), (2.0, "d")], ">=", 0.5)
    assert (result.statistic, result.worst_case, result.passed) == (1.0, "b", True)
    assert not fold([(0.25, "a")], ">=", 0.5).passed


@pytest.mark.parametrize("comparison", ["<=", ">="])
def test_row_without_cases_passes_vacuously(comparison):
    result = fold([], comparison, 1.0)
    assert (result.cases, result.statistic, result.worst_case) == (0, 0.0, "")
    assert result.passed


@pytest.mark.parametrize("comparison", ["<=", ">="])
@pytest.mark.parametrize(
    "cases",
    [
        [(NAN, "a"), (0.0, "b")],
        [(0.5, "x"), (NAN, "a"), (NAN, "b"), (7.0, "c"), (-1.0, "d")],
        [(NAN, "a")],
    ],
)
def test_nan_statistic_fails_and_names_its_first_case(comparison, cases):
    result = fold(cases, comparison, 1.0)
    assert math.isnan(result.statistic)
    assert result.worst_case == "a"
    assert result.cases == len(cases)
    assert not result.passed


@pytest.mark.parametrize("cases", [[(5.0, "a")], [(NAN, "a")], [(0.0, "a")]])
def test_informational_rows_never_fail(cases):
    for comparison in ("<=", ">="):
        result = fold(cases, comparison, 1.0, informational=True)
        assert result.passed and result.informational
    assert fold([], informational=True) is None


def test_table_order_matches_recorded_report():
    ids = [check.check_id for check in verify._CHECKS]
    assert len(ids) == len(set(ids))
    golden = Path(__file__).parent / "data" / "verify_golden.json"
    for case in json.loads(golden.read_text()):
        lines = case["output"].splitlines()[1:]
        recorded = [
            line.split()[0]
            for line in lines
            if not line.startswith((" ", "note:"))
        ]
        assert recorded == ids


def test_oracle_rows_share_one_pass(monkeypatch):
    calls = []
    trees = []
    spectral, eigen = verify.hit_spectral, verify.tau_eigen

    def counted(spec, ell, bits):
        calls.append((spec, ell))
        return spectral(spec, ell, bits)

    def counted_trees(spec, bits):
        trees.append(spec)
        return eigen(spec, bits)

    monkeypatch.setattr(verify, "hit_spectral", counted)
    monkeypatch.setattr(verify, "tau_eigen", counted_trees)
    results = {r.check_id: r for r in run_verification(kmax=1, nmax=6)}
    # n = 3..6 on k = 1, every ell once and every graph once.
    assert len(calls) == len(set(calls)) == 3 + 4 + 5 + 6
    assert len(trees) == len(set(trees)) == 4
    assert results["hitting-oracle-spectral"].cases == len(calls)
    assert results["hitting-oracle-closed"].cases == len(calls)
    assert results["tree-triple-agreement"].cases == len(trees)
    assert verify._oracle_deviations.cache_info().currsize == 0


def test_a_run_that_raised_leaves_no_cached_values(monkeypatch):
    def fail(spec, ell):
        raise RuntimeError("contraction failed")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "tau_contracted", fail)
        with pytest.raises(RuntimeError, match="contraction failed"):
            run_verification(2, 8, 64)
    for cached in (verify._ratio_table, verify._oracle_deviations,
                   verify._full_index_value):
        assert cached.cache_info().currsize == 0
    spectral = verify.hit_spectral

    def doubled(spec, ell, bits):
        return 2 * spectral(spec, ell, bits)

    monkeypatch.setattr(verify, "hit_spectral", doubled)
    results = {r.check_id: r for r in run_verification(2, 8, 64)}
    oracle = results["hitting-oracle-spectral"]
    assert not oracle.passed
    assert oracle.statistic == 0.5


def test_each_graph_builds_its_eigenvalue_table_once():
    # 74 graphs, more than the 64 tables the cache keeps: a second walk over
    # the graphs would build every table again.
    hitting.laplacian_eigenvalues.cache_clear()
    run_verification(kmax=2, nmax=40, precision_bits=512)
    graphs = len(list(verify._specs(2, 40)))
    assert graphs == 74
    assert hitting.laplacian_eigenvalues.cache_info().misses == graphs


@pytest.mark.parametrize("mirror", [False, True], ids=["octant", "mirror"])
def test_a_cosine_defect_fails_the_spectral_oracle(mirror, monkeypatch):
    # A 1e-8 defect in c_1, or in its mirror c_(n-1), of every cosine table
    # moves the k = 1 spectral sums past the oracle tolerance.
    exact = hitting.cosine_table

    def defective(n, bits):
        table = list(exact(n, bits))
        j = n - 1 if mirror else 1
        with mp.workprec(bits + 32):
            table[j] *= 1 + mp.mpf(10) ** -8
        return tuple(table)

    monkeypatch.setattr(hitting, "cosine_table", defective)
    monkeypatch.setattr(verify, "cosine_table", defective)
    hitting.laplacian_eigenvalues.cache_clear()
    try:
        results = {r.check_id: r for r in run_verification(kmax=1, nmax=12)}
    finally:
        hitting.laplacian_eigenvalues.cache_clear()
    assert not results["hitting-oracle-spectral"].passed
