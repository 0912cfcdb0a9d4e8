"""Self-tests of the benchmark: its checks, its self-time arithmetic, and the
agreement of the names it emits with BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q benchmark
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402


def cli(*args: str, traced_to: Path | None = None) -> str:
    """stdout of one CLI call, run the way the benchmark runs it."""
    if traced_to is None:
        argv = [sys.executable, "-m", "cyclepow.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_to), "--", *args]
    done = subprocess.run(argv, capture_output=True, text=True, env=run.child_env(),
                          cwd=ROOT, timeout=120, check=True)
    return done.stdout


def hit_request(n, k, ell, *extra) -> Request:
    return Request(("hit", "--n", str(n), "--k", str(k), "--ell", str(ell), *extra,
                    "--format", "json"))


def replace_result(stdout: str, method: str, **fields) -> str:
    lines = []
    for line in stdout.splitlines():
        record = json.loads(line)
        for entry in record["results"]:
            if entry["method"] == method:
                entry.update(fields)
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def hit_k3():
    request = hit_request(14, 3, 5, "--method", "all", "--walks", "2000", "--seed", "7")
    return request, cli(*request.args)


@pytest.fixture(scope="module")
def hit_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "hit.csv"
    request = workloads.grid(None)[1]
    cli(*[str(out) if arg == "{out}" else arg for arg in request.args])
    return request, out.read_text(encoding="utf-8")


def test_oracles_match_the_exact_routes():
    for n, k, ell in ((12, 2, 5), (9, 1, 4), (11, 2, 1)):
        request = hit_request(n, k, ell, "--method", "exact")
        problems, _ = checks.check_hit(request, cli(*request.args))
        assert problems == []
    request = Request(("trees", "--n", "13", "--k", "2", "--ell", "4", "--format", "json"))
    assert checks.check_trees(request, cli(*request.args)) == []


def test_hit_checks_accept_real_output_and_reject_a_perturbed_exact_value(hit_k3):
    request, stdout = hit_k3
    assert checks.check_hit(request, stdout)[0] == []
    exact = Fraction(json.loads(stdout.splitlines()[0])["results"][0]["value"])
    bad = replace_result(stdout, "exact", value=str(exact + Fraction(1, 10**6)))
    problems, _ = checks.check_hit(request, bad)
    assert any(p.startswith("spectral") for p in problems)
    assert any(p.startswith("closed") for p in problems)


def test_oracle_rejects_a_perturbed_exact_value_for_k2():
    request = hit_request(12, 2, 5, "--method", "exact")
    stdout = cli(*request.args)
    bad = replace_result(stdout, "exact", value="56/3")
    problems, _ = checks.check_hit(request, bad)
    assert problems and "oracle" in problems[0]


def test_simulate_mean_ten_stderr_off_is_rejected(hit_k3):
    request, stdout = hit_k3
    exact = Fraction(json.loads(stdout.splitlines()[0])["results"][0]["value"])
    stderr = 0.25
    near = replace_result(stdout, "simulate", value=repr(float(exact) + 5 * stderr),
                          err=repr(stderr))
    far = replace_result(stdout, "simulate", value=repr(float(exact) + 10 * stderr),
                         err=repr(stderr))
    assert checks.check_hit(request, near)[0] == []
    problems, _ = checks.check_hit(request, far)
    assert len(problems) == 1 and problems[0].startswith("simulate")


def test_trees_checks_reject_a_broken_forest_identity():
    request = Request(("trees", "--n", "15", "--k", "3", "--ell", "4", "--format", "json"))
    stdout = cli(*request.args)
    assert checks.check_trees(request, stdout) == []
    forest = int(json.loads(stdout)["results"][4]["value"])
    bad = replace_result(stdout, "forests", value=str(forest + 1))
    assert len(checks.check_trees(request, bad)) == 2


def test_analytic_pair_disagreement_is_rejected():
    spectral = hit_request(40, 3, 7, "--method", "spectral")
    closed = hit_request(40, 3, 7, "--method", "closed", "--form", "seq")
    _, a = checks.check_hit(spectral, cli(*spectral.args))
    _, b = checks.check_hit(closed, cli(*closed.args))
    assert checks.check_pair(a, b) == []
    value, err = b["closed"]
    assert checks.check_pair(a, {"closed": (value * (1 + Fraction(1, 10**9)), err)})


def test_sweep_missing_a_row_is_rejected(hit_sweep):
    request, text = hit_sweep
    assert checks.check_sweep(request, text) == []
    lines = text.split("\n")
    problems = checks.check_sweep(request, "\n".join(lines[:100] + lines[101:]))
    assert problems and "rows, expected" in problems[0]
    assert checks.check_sweep(request, text.replace("n,k,ell", "n,k,l", 1))


def test_sweep_wrong_value_is_rejected(hit_sweep):
    request, text = hit_sweep
    # Row 1 is (5, 1, 0, exact); row 3 is (5, 1, 1, exact) = 1 * 4.
    lines = text.split("\n")
    assert lines[3].startswith("5,1,1,exact,4,")
    lines[3] = lines[3].replace(",4,", ",5,")
    problems = checks.check_sweep(request, "\n".join(lines))
    assert any("oracle" in p for p in problems)


def test_verify_fail_line_is_rejected():
    good = ("check  cases  worst  requirement  status\n"
            "a  3  0.000e+00  == 0  pass\n"
            "b  3  1.000e-20  <= 1e-10  pass\n"
            "# wall_time_s=0.100\n")
    assert checks.check_verify(good) == []
    assert checks.check_verify(good.replace("b  3  1.000e-20  <= 1e-10  pass",
                                            "b  3  1.000e-02  <= 1e-10  FAIL"))
    assert checks.check_verify(good.rsplit("#", 1)[0])


def test_self_time_on_a_synthetic_nested_trace():
    #   root  0..100
    #     a   10..40       b  50..60      c 90..120 (runs past its parent)
    #       aa 20..30
    spans = [
        ["root", -1, 0, 100, None],
        ["a", 0, 10, 40, None],
        ["aa", 1, 20, 30, None],
        ["b", 0, 50, 60, None],
        ["c", 0, 90, 120, None],
    ]
    assert tracing.self_times(spans) == [100 - 30 - 10 - 10, 20, 10, 10, 30]
    # Overlapping children are merged, not subtracted twice.
    overlapping = [["p", -1, 0, 10, None], ["q", 0, 2, 6, None], ["r", 0, 4, 8, None]]
    assert tracing.self_times(overlapping)[0] == 4


def test_traced_request_self_times_account_for_the_request(tmp_path):
    spans_file = tmp_path / "spans.json"
    cli("trees", "--n", "9", "--k", "2", "--ell", "3", "--format", "json",
        traced_to=spans_file)
    trace = json.loads(spans_file.read_text())
    names = trace["names"]
    spans = [[names[s[0]], *s[1:]] for s in trace["spans"]]
    assert spans[0][0] == "cli.request" and spans[0][1] == -1
    seen = {span[0] for span in spans}
    # Calls made through namespaces other than the defining module are traced.
    assert {"arboreal.tau_det", "hitting.hit_exact", "fractionfree.determinant",
            "graphs.build_laplacian", "spectral.partial_fractions"} <= seen
    assert sum(tracing.self_times(spans)) == spans[0][3] - spans[0][2]
    dims = sorted(s[4]["dim"] for s in spans if s[0].startswith("fractionfree."))
    # tau_contracted; tau_det for the count and again inside forests; the solve
    assert dims == [7, 8, 8, 8]


def fake_pass(traced: bool, spans=None) -> run.Pass:
    outcomes = [run.Outcome(run.Sample(t, 1.0), 40.0, [], 10, spans) for t in (1.0, 2.0)]
    return run.Pass(traced, outcomes)


def test_emitted_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    references = [run.Sample(0.0, 0.5), run.Sample(100.0, 5.0)]
    e2e, _ = run.end_to_end([fake_pass(False)], [run.Sample(0.5, 0.3)], references)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [u for _, u in e2e.values()] == [m["unit"] for m in spec["end_to_end"]]
    # Only the reference within the window counts.
    assert e2e["wall_s"][0] == pytest.approx(4 * run.REFERENCE_S)
    assert e2e["setup_s"][0] == pytest.approx(0.6 * run.REFERENCE_S)
    assert e2e["ok_frac"][0] == 1.0
    trace = {
        "names": ["cli.request", "fractionfree.solve", "hitting.hit_simulate"],
        "spans": [[0, -1, 0, 100, None], [1, 0, 10, 20, {"dim": 3, "updates": 6}],
                  [2, 0, 30, 90, {"walks": 10, "steps": 400}]],
        "caches": {label: [1, 1] for label in tracing.CACHES.values()},
    }
    layers = run.per_layer([fake_pass(False), fake_pass(True, trace)])
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert [u for _, u in layers.values()] == [m["unit"] for m in spec["per_layer"]]
    assert layers["hitting.walks"][0] == 20
    assert layers["fractionfree.self_s"][0] == pytest.approx(20e-9)
    assert layers["cli.self_s"][0] == pytest.approx(2 * 30e-9)


def test_workload_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    assert workloads.build("walks", 5) != workloads.build("walks", 6)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    for path in ("BENCHMARK.json", *(f"benchmark/{p.name}" for p in HERE.glob("*.py"))):
        target = tmp_path / path
        target.parent.mkdir(exist_ok=True)
        target.write_bytes((ROOT / path).read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "walks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0 and done.stdout == ""
