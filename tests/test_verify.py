import json
import math
from pathlib import Path

import pytest
from mpmath import mp

from cyclepow import (
    ParameterError,
    arboreal,
    fractionfree,
    hitting,
    run_verification,
    verify,
)
from cyclepow.spectral import FactorData, SpectralFactorization, residual_tolerance
from oracles import invoke


def test_run_verification_small_bounds_all_pass():
    results = run_verification(kmax=2, nmax=10)
    ids = [r.check_id for r in results]
    assert len(ids) == len(set(ids))
    assert all(r.passed for r in results)
    assert any(r.check_id == "hitting-oracle-spectral" for r in results)
    assert any(r.check_id == "hitting-oracle-closed" for r in results)


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


def test_odd_precision_rows_grade_against_the_default_precision_float():
    # 2^(-97/2) is irrational, so its float could hang on the precision it is
    # taken at; every numeric row grades against the one taken at 53 bits.
    with mp.workprec(53):
        tolerance = float(residual_tolerance(97))
    numeric = {c.check_id for c in verify._CHECKS if c.threshold is residual_tolerance}
    rows = [r for r in run_verification(1, 5, 97) if r.check_id in numeric]
    assert len(rows) == len(numeric)
    assert all(r.threshold == tolerance for r in rows)
    result = invoke(["verify", "--kmax", "1", "--nmax", "5", "--precision", "97"])
    assert result.exit_code == 0
    assert result.stdout.count("<= 2.51e-15") == len(numeric)


def test_bounds_validation():
    with pytest.raises(ParameterError):
        run_verification(kmax=0, nmax=10)
    with pytest.raises(ParameterError):
        run_verification(kmax=9, nmax=40)
    with pytest.raises(ParameterError):
        run_verification(kmax=3, nmax=6)


def fold(cases, comparison="<=", threshold=0.0, informational=False):
    """Run the verify runner on one synthetic row yielding `cases` on the one
    graph of kmax = 1, nmax = 3; None when the row is left out."""
    check = verify._Check(
        "synthetic", "synthetic row", threshold, comparison, informational,
        lambda spec, bits: iter(cases),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_CHECKS", [check])
        results = run_verification(1, 3, 64)
    assert len(results) <= 1
    return results[0] if results else None


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


def test_a_run_that_raised_leaves_no_cached_values(monkeypatch):
    def fail(spec):
        raise RuntimeError("contraction failed")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "contracted_counts", fail)
        with pytest.raises(RuntimeError, match="contraction failed"):
            run_verification(2, 8, 64)
    spectral = verify.hit_spectral

    def doubled(spec, ell, bits):
        return 2 * spectral(spec, ell, bits)

    monkeypatch.setattr(verify, "hit_spectral", doubled)
    results = {r.check_id: r for r in run_verification(2, 8, 64)}
    oracle = results["hitting-oracle-spectral"]
    assert not oracle.passed
    assert oracle.statistic == 0.5


SPECTRAL_TABLES = (hitting.cosine_table, hitting.fixed_eigenvalues)


def test_each_graph_builds_its_eigenvalue_table_once():
    # 74 graphs, more than the 64 tables each cache keeps: a second walk over
    # the graphs would build every table again.  hit_spectral and tau_eigen
    # both read the fixed-point table.
    for cached in SPECTRAL_TABLES:
        cached.cache_clear()
    run_verification(kmax=2, nmax=40, precision_bits=512)
    graphs = len(list(verify._specs(2, 40)))
    assert graphs == 74
    assert hitting.fixed_eigenvalues.cache_info().misses == graphs


def test_each_graph_is_solved_and_factored_once():
    # One walk over the graphs: every row reads a graph's exact solve, its
    # reduced-Laplacian factor and its eigenvalue table while that graph is
    # the latest, so one cached entry of each serves the run.  The one
    # cosine memo keeps 64 tables, since each n's table serves every k: the
    # 22 n from 3 to 24 are built once each.
    memos = (fractionfree._factor, hitting.hit_exact_all, hitting.fixed_eigenvalues)
    for cached in (*memos, hitting.cosine_table):
        cached.cache_clear()
    run_verification(kmax=3, nmax=24)
    graphs = len(list(verify._specs(3, 24)))
    assert graphs == 60
    for cached in memos:
        assert cached.cache_info().misses == graphs, cached
    assert {cached.cache_info().maxsize for cached in memos} == {1}
    cosines = hitting.cosine_table.cache_info()
    assert (cosines.maxsize, cosines.misses) == (64, 22)


def test_sweep_forests_reads_each_graphs_tau_once(tmp_path):
    # sweep asks for every ell of one graph before the next, so the one tau
    # that arboreal keeps is computed once per graph.
    arboreal._graph_tau.cache_clear()
    result = invoke(
        ["sweep", "--n-range", "5:12", "--k-range", "1:3",
         "--quantity", "forests", "--out", str(tmp_path / "forests.csv")],
    )
    assert result.exit_code == 0
    info = arboreal._graph_tau.cache_info()
    assert (info.maxsize, info.misses) == (1, 22)  # the (n, k) with n >= 2k + 1


@pytest.mark.parametrize("mirror", [False, True], ids=["octant", "mirror"])
def test_a_cosine_defect_fails_the_spectral_oracle(mirror, monkeypatch):
    # A 1e-8 defect in C_1, or in its mirror C_(n-1), of every fixed-point
    # cosine table, the one the spectral sum and its eigenvalues read, moves
    # the k = 1 spectral sums past the oracle tolerance.
    exact = hitting.cosine_table

    def defective(n, bits):
        table = list(exact(n, bits))
        j = n - 1 if mirror else 1
        table[j] += table[j] // 10**8
        return tuple(table)

    monkeypatch.setattr(hitting, "cosine_table", defective)
    for cached in SPECTRAL_TABLES:
        cached.cache_clear()
    try:
        results = {r.check_id: r for r in run_verification(kmax=1, nmax=12)}
    finally:
        for cached in SPECTRAL_TABLES:
            cached.cache_clear()
    assert not results["hitting-oracle-spectral"].passed


def _moved(route, move):
    """route with move(result, *args) applied to each result."""
    return lambda *args: move(route(*args), *args)


def _replaced(index, value):
    """Move a tuple-returning route's entry `index` to value(entry)."""

    def move(values, *args):
        values = list(values)
        values[index] = value(values[index])
        return tuple(values)

    return move


def _ratio_defect(form):
    """Move the ell = 1 entry of every ratio table of one form by 1e-8."""

    def move(ratios, factor, n, table_form, bits):
        if table_form != form:
            return ratios
        return _replaced(1, lambda ratio: ratio + mp.mpf(10) ** -8)(ratios)

    return move


def _coefficient_defect(sf, k, bits):
    """Double the first factor's partial-fraction coefficient (k >= 2)."""
    if not sf.factors:
        return sf
    first = sf.factors[0]
    first = FactorData(
        first.root, first.inner_root, 2 * first.coefficient, first.residual
    )
    return SpectralFactorization(
        sf.k, sf.precision_bits, sf.pole_coefficient, (first, *sf.factors[1:])
    )


def _hit_defect(hits, spec):
    # h(0, 2) = 2 h(0, 1) + 1 breaks subadditivity, symmetry, the k = 1
    # quadratic and the complete graph's constant 2k at once.
    return _replaced(2, lambda _: 2 * hits[1] + 1)(hits)


# (row, route the row reads, defect applied to the route's result).
DEFECTS = [
    ("partial-fraction-residual", "cached_factorization", _coefficient_defect),
    ("ratio-form-agreement", "correction_ratios", _ratio_defect("sequence")),
    ("fibonacci-anchor", "correction_ratios", _ratio_defect("sequence")),
    ("hitting-symmetry", "hit_exact_all", _hit_defect),
    ("k1-quadratic", "hit_exact_all", _hit_defect),
    ("complete-graph-degeneracy", "hit_exact_all", _hit_defect),
    ("resolvent-periodization", "correction_ratios", _ratio_defect("exponential")),
    ("tree-triple-agreement", "tau_product", lambda tau, spec, bits: tau + 1),
    ("forest-contraction-duality", "contracted_counts", _replaced(1, lambda c: c + 1)),
    ("resistance-metric", "hit_exact_all", _hit_defect),
    ("hitting-oracle-spectral", "hit_spectral", lambda h, spec, ell, bits: 2 * h),
    ("hitting-oracle-closed", "hit_closed_all", _replaced(1, lambda h: h * (1 + 1e-8))),
]


def test_defects_cover_every_row_that_can_fail():
    rows = [row for row, _, _ in DEFECTS]
    assert rows == [c.check_id for c in verify._CHECKS if not c.informational]


@pytest.mark.parametrize("row, route, move", DEFECTS, ids=[d[0] for d in DEFECTS])
def test_each_row_fails_on_a_defect_in_what_it_reads(row, route, move, monkeypatch):
    monkeypatch.setattr(verify, route, _moved(getattr(verify, route), move))
    result = invoke("verify --kmax 2 --nmax 8".split())
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    statuses = {line.split()[0]: line.split()[-1] for line in result.output.splitlines()}
    assert statuses[row] == "FAIL"
