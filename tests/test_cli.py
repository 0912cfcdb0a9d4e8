import json
from fractions import Fraction

import pytest
from mpmath import mp

from cyclepow import (
    GraphSpec,
    ParameterError,
    PrecisionError,
    arboreal_counts,
    hit_exact,
    tau_det,
)
from oracles import invoke


def records(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines() if line.strip()]


def test_hit_exact_json():
    result = invoke(
        ["hit", "--n", "7", "--k", "1", "--ell", "3",
         "--method", "exact", "--format", "json"],
    )
    assert result.exit_code == 0
    (record,) = records(result.output)
    assert record["cmd"] == "hit"
    assert record["results"] == [{"method": "exact", "value": "12", "err": None}]
    assert record["precision_bits"] == 256
    assert record["seed"] is None


def test_hit_all_methods_consistent():
    result = invoke(
        ["hit", "--n", "6", "--k", "2", "--ell", "1", "--method", "all",
         "--walks", "3000", "--seed", "11", "--format", "json"],
    )
    assert result.exit_code == 0
    recs = records(result.output)
    assert [r["results"][0]["method"] for r in recs] == [
        "exact", "spectral", "closed", "simulate",
    ]
    assert recs[0]["results"][0]["value"] == "5"
    for rec in recs[1:3]:
        assert abs(float(rec["results"][0]["value"]) - 5) < 1e-30
    simulate = recs[3]["results"][0]
    assert abs(float(simulate["value"]) - 5) <= 5 * float(simulate["err"]) + 0.2
    assert recs[3]["seed"] == "11"
    assert recs[3]["generator"]


def test_hit_closed_at_k48_matches_the_complete_graph():
    # n = 2k + 1 is the complete graph K_97, where every h(0, ell) is n - 1.
    args = ["hit", "--n", "97", "--k", "48", "--ell", "5", "--format", "json"]
    exact = invoke(args + ["--method", "exact"])
    closed = invoke(args + ["--method", "closed"])
    assert exact.exit_code == 0 and closed.exit_code == 0, closed.output
    (exact_row,) = records(exact.output)[0]["results"]
    (closed_row,) = records(closed.output)[0]["results"]
    assert exact_row["value"] == "96"
    assert abs(Fraction(closed_row["value"]) - 96) <= Fraction(closed_row["err"])


def test_hit_closed_at_k192_matches_the_complete_graph():
    # K_385: psi_192's roots certify through the four-term inner equation,
    # where Horner on psi_192 could not resolve |psi_192(gamma)|.  The
    # exact route, a 384-row elimination, is left to the k = 48 case.
    result = invoke(
        ["hit", "--n", "385", "--k", "192", "--ell", "5",
         "--method", "closed", "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    (row,) = records(result.output)[0]["results"]
    assert abs(Fraction(row["value"]) - 384) <= Fraction(row["err"])


def test_trees_at_k48_match_the_complete_graph():
    # On K_97 Cayley's formula gives tau = n^(n-2).
    result = invoke(
        ["trees", "--n", "97", "--k", "48", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    rows = {row["method"]: row for row in records(result.output)[0]["results"]}
    assert rows["tau_det"]["value"] == str(97**95)
    product = rows["tau_product"]
    assert abs(Fraction(product["value"]) - 97**95) <= Fraction(product["err"])


def test_hit_zero_displacement():
    result = invoke(
        ["hit", "--n", "6", "--k", "2", "--ell", "0", "--method", "all",
         "--walks", "10", "--format", "json"],
    )
    assert result.exit_code == 0
    for rec in records(result.output):
        assert float(rec["results"][0]["value"]) == 0


def test_hit_erratum_record():
    result = invoke(
        ["hit", "--n", "6", "--k", "2", "--ell", "1", "--method", "exact",
         "--erratum", "--format", "json"],
    )
    assert result.exit_code == 0
    recs = records(result.output)
    assert recs[-1]["results"][0]["method"] == "closed-literal"
    assert abs(float(recs[-1]["results"][0]["value"]) - 23 / 6) < 1e-12


def test_hit_usage_errors():
    result = invoke(["hit", "--n", "4", "--k", "2", "--ell", "1"])
    assert result.exit_code == 2
    assert "2k+1" in result.output
    result = invoke(["hit", "--n", "6", "--k", "2", "--ell", "9"])
    assert result.exit_code == 2
    result = invoke(["hit", "--n", "6", "--k", "2", "--ell", "1",
                     "--method", "bogus"])
    assert result.exit_code == 2


def test_hit_json_round_trip_is_exact():
    spec = GraphSpec(11, 3)
    for ell in (1, 4, 5):
        result = invoke(
            ["hit", "--n", "11", "--k", "3", "--ell", str(ell),
             "--method", "exact", "--format", "json"],
        )
        (record,) = records(result.output)
        assert record["results"][0]["value"] == str(hit_exact(spec, ell))
        assert Fraction(record["results"][0]["value"]) == hit_exact(spec, ell)


def test_hit_deterministic_bytes():
    args = ["hit", "--n", "9", "--k", "2", "--ell", "4", "--method", "all",
            "--walks", "500", "--seed", "77", "--format", "json"]
    first = invoke(args)
    second = invoke(args)
    assert first.output == second.output
    different = invoke(args[:-3] + ["78", "--format", "json"])
    assert different.output != first.output


def test_text_format_has_wall_time_only_difference():
    args = ["hit", "--n", "7", "--k", "2", "--ell", "2", "--method", "exact"]
    first = invoke(args)
    second = invoke(args)
    strip = lambda out: [l for l in out.splitlines() if not l.startswith("# wall")]
    assert strip(first.output) == strip(second.output)
    assert any(l.startswith("# wall_time_s=") for l in first.output.splitlines())


def test_trees_without_ell():
    result = invoke(
        ["trees", "--n", "5", "--k", "2", "--format", "json"],
    )
    assert result.exit_code == 0
    (record,) = records(result.output)
    values = {r["method"]: r["value"] for r in record["results"]}
    assert values["tau_det"] == "125"
    assert abs(float(values["tau_eigen"]) - 125) < 1e-20
    assert abs(float(values["tau_product"]) - 125) < 1e-20


def test_trees_with_ell():
    result = invoke(
        ["trees", "--n", "5", "--k", "2", "--ell", "1", "--format", "json"],
    )
    (record,) = records(result.output)
    by_method = {r["method"]: r["value"] for r in record["results"]}
    assert by_method["resistance"] == "2/5"
    assert by_method["forests"] == "50"
    assert by_method["tau_contracted"] == "50"


def test_trees_cycle():
    result = invoke(["trees", "--n", "6", "--k", "1", "--format", "json"])
    (record,) = records(result.output)
    assert record["results"][0]["value"] == "6"


@pytest.mark.parametrize("ell", [-1, 0, 6])
def test_trees_gives_the_ell_advice_of_arboreal_counts(ell):
    with pytest.raises(ParameterError) as raised:
        arboreal_counts(GraphSpec(6, 1), ell)
    result = invoke(["trees", "--n", "6", "--k", "1", "--ell", str(ell)])
    assert result.exit_code == 2
    assert result.output.endswith(f"Error: {raised.value}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        ("hit --n 6 --k 2 --ell 9", "need 0 <= ell < 6, got 9"),
        ("hit --n 6 --k 2 --ell -1", "need 0 <= ell < 6, got -1"),
        ("trees --n 6 --k 1 --ell 6", "need 1 <= ell < 6, got 6"),
        ("trees --n 6 --k 1 --ell 0", "need 1 <= ell < 6, got 0"),
        ("verify --kmax 9 --nmax 40", "kmax must be in 1..8, got 9"),
        ("verify --kmax 3 --nmax 5", "nmax must be >= 2*kmax+1, got 5"),
        ("hit --n 6 --k 2 --ell 1 --walks 0", "walks must be >= 1"),
        ("hit --n 6 --k 2 --ell 1 --seed -1", "seed must fit in 64 bits"),
        (
            "hit --n 6 --k 2 --ell 1 --seed 18446744073709551616",
            "seed must fit in 64 bits",
        ),
        *(
            (f"{command} --precision 63", "precision must be at least 64 bits")
            for command in (
                "hit --n 6 --k 2 --ell 1",
                "trees --n 6 --k 2",
                "verify --kmax 1 --nmax 3",
                "sweep --n-range 5:8 --k-range 1:2 --quantity tau --out /dev/null",
            )
        ),
    ],
)
def test_usage_error_messages(args, message):
    result = invoke(args.split())
    assert result.exit_code == 2
    assert result.output.endswith(f"Error: {message}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        ("hit --n 5", "the following arguments are required: --k, --ell"),
        ("hit --n 6 --k 2 --ell 1 --method foo",
         "argument --method: invalid choice: 'foo'"),
        ("hit --n five --k 2 --ell 1", "argument --n: invalid int value: 'five'"),
        ("trees --n 6 --k 2 --bogus 1", "unrecognized arguments: --bogus 1"),
        ("", "the following arguments are required: COMMAND"),
    ],
)
def test_parser_usage_errors(args, message):
    # The message is matched up to where argparse's wording may vary.
    result = invoke(args.split())
    assert result.exit_code == 2
    assert result.stdout == ""
    *_, last = result.stderr.split("\nError: ")
    assert last.startswith(message) and last.endswith("\n")
    assert "\n" not in last[:-1]


@pytest.mark.parametrize(
    "command, options",
    [
        ("hit", "--n --k --ell --method --form --precision --walks --seed "
         "--erratum --format"),
        ("trees", "--n --k --ell --precision --format"),
        ("verify", "--kmax --nmax --precision --report"),
        ("sweep", "--n-range --k-range --quantity --out --precision --format"),
    ],
)
def test_command_help_names_every_option(command, options):
    result = invoke([command, "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    for option in [*options.split(), "--help"]:
        assert f"  {option} " in result.stdout, option


# The layer module each route is read from when a command runs.
ROUTE_LAYERS = {
    "hit_spectral": "hitting",
    "hit_closed_literal": "hitting",
    "hit_closed_all": "hitting",
    "arboreal_counts": "arboreal",
    "run_verification": "verify",
}


@pytest.mark.parametrize(
    "args, route",
    [
        ("hit --n 12 --k 2 --ell 5 --method spectral", "hit_spectral"),
        ("hit --n 12 --k 2 --ell 5 --method closed --erratum", "hit_closed_literal"),
        ("trees --n 12 --k 2 --ell 5", "arboreal_counts"),
        ("verify --kmax 1 --nmax 3", "run_verification"),
        ("sweep --n-range 5:8 --k-range 1:2 --quantity tau", "arboreal_counts"),
        ("sweep --n-range 5:8 --k-range 1:2 --quantity resist", "hit_closed_all"),
    ],
)
def test_package_error_is_reported_for_every_command(
    monkeypatch, tmp_path, args, route
):
    def fail(*args, **kwargs):
        raise PrecisionError("root refinement did not converge")

    monkeypatch.setattr(f"cyclepow.{ROUTE_LAYERS[route]}.{route}", fail)
    out = tmp_path / "sweep.out"
    argv = args.split() + (["--out", str(out)] if args.startswith("sweep") else [])
    result = invoke(argv)
    assert result.exit_code == 1
    assert result.stderr == "error: root refinement did not converge\n"
    assert result.stdout == ""
    assert not out.exists()


def test_trees_refuses_a_tree_product_beyond_its_bound(monkeypatch):
    from cyclepow import arboreal

    exact = arboreal.tau_eigen

    def off(spec, bits):
        with mp.workprec(bits + 32):
            return exact(spec, bits) * (1 + mp.mpf(2) ** -100)

    monkeypatch.setattr(arboreal, "tau_eigen", off)
    result = invoke(["trees", "--n", "12", "--k", "2", "--ell", "5"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: eigenvalue tree product ")
    assert " disagrees with the determinant count " in result.stderr
    assert result.stdout == ""


def test_simulate_over_the_step_cap_fails_before_walking(monkeypatch):
    from cyclepow import _philox

    def walk(*args):
        raise AssertionError("walked a run that cannot finish")

    monkeypatch.setattr(_philox, "walk_times", walk)
    result = invoke(
        ["hit", "--n", "12", "--k", "2", "--ell", "5", "--method",
         "simulate", "--walks", "2000000000"],
    )
    assert result.exit_code == 1
    assert result.stderr.startswith("error: step cap 1000000000 is below ")
    assert result.stdout == ""


def test_simulate_beyond_int64_positions_fails_before_walking(monkeypatch):
    from cyclepow import _philox

    def walk(*args):
        raise AssertionError("walked a run that overflows")

    monkeypatch.setattr(_philox, "walk_times", walk)
    result = invoke(
        ["hit", "--n", "9223372036854775809", "--k", "1", "--ell", "1",
         "--method", "simulate", "--walks", "1"],
    )
    assert result.exit_code == 1
    assert result.stderr.startswith(
        "error: n=9223372036854775809, k=1 is too large to simulate"
    )
    assert result.stdout == ""


def test_csv_format():
    result = invoke(
        ["hit", "--n", "6", "--k", "2", "--ell", "3", "--method", "exact",
         "--format", "csv"],
    )
    lines = result.output.splitlines()
    assert lines[0] == "n,k,ell,method,value,err_bound"
    assert lines[1] == "6,2,3,exact,6,"
    assert "\r" not in result.output


def test_verify_small_ranges():
    result = invoke(["verify", "--kmax", "1", "--nmax", "12"])
    assert result.exit_code == 0
    assert "pass" in result.output
    assert "FAIL" not in result.output


def test_verify_full_report_shows_erratum():
    result = invoke(
        ["verify", "--kmax", "2", "--nmax", "6", "--report", "full"],
    )
    assert result.exit_code == 0
    assert "erratum-full-index-ratio" in result.output
    assert "3.83" in result.output
    assert "info" in result.output


def test_verify_usage_errors():
    assert invoke(["verify", "--kmax", "9", "--nmax", "40"]).exit_code == 2
    assert invoke(["verify", "--kmax", "3", "--nmax", "5"]).exit_code == 2


def test_verify_exits_one_on_failing_check(monkeypatch):
    from cyclepow import verify
    from cyclepow.verify import CheckResult

    fake = [
        CheckResult(
            "fake-check", "synthetic failure", 1, 1.0, 0.0, "<=", False,
            "(n=6, k=2, ell=1)",
        )
    ]
    monkeypatch.setattr(verify, "run_verification", lambda *a, **kw: fake)
    result = invoke(["verify", "--kmax", "1", "--nmax", "3"])
    assert result.exit_code == 1
    assert "fake-check" in result.output
    assert "(n=6, k=2, ell=1)" in result.output


def test_sweep_tau_csv(tmp_path):
    out = tmp_path / "tau.csv"
    result = invoke(
        ["sweep", "--n-range", "5:8", "--k-range", "1:2",
         "--quantity", "tau", "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,ell,method,value,err_bound"
    det_rows = [l for l in lines[1:] if ",tau_det," in l]
    for row in det_rows:
        n, k, _ell, _method, value, _err = row.split(",")
        assert int(value) == tau_det(GraphSpec(int(n), int(k)))
    # n=5..8 with k=1, plus n=5..8 with k=2 -> 8 tau_det rows
    assert len(det_rows) == 8


def test_sweep_hit_quadratic(tmp_path):
    out = tmp_path / "hit.csv"
    result = invoke(
        ["sweep", "--n-range", "7:7", "--k-range", "1:1",
         "--quantity", "hit", "--out", str(out)],
    )
    assert result.exit_code == 0
    for line in out.read_text().splitlines()[1:]:
        n, k, ell, method, value, _err = line.split(",")
        if method == "exact":
            ell = int(ell)
            assert Fraction(value) == ell * (7 - ell)


def test_sweep_resist_closed_values_are_full_precision(tmp_path):
    # regression: the analytic resistance used to be divided at ambient
    # (53-bit) precision, leaving double-rounding artifacts in the output
    out = tmp_path / "resist.csv"
    result = invoke(
        ["sweep", "--n-range", "5:5", "--k-range", "1:1",
         "--quantity", "resist", "--out", str(out)],
    )
    assert result.exit_code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    closed = {int(r[2]): r[4] for r in rows if r[3] == "closed"}
    assert closed[1] == "0.8"
    exact = {int(r[2]): r[4] for r in rows if r[3] == "exact"}
    assert exact[1] == "4/5"
    for ell, text in closed.items():
        assert abs(float(text) - float(Fraction(exact[ell]))) < 1e-15


def test_sweep_forests_json(tmp_path):
    out = tmp_path / "forests.jsonl"
    result = invoke(
        ["sweep", "--n-range", "5:6", "--k-range", "1:1",
         "--quantity", "forests", "--format", "json", "--out", str(out)],
    )
    assert result.exit_code == 0
    for line in out.read_text().splitlines():
        record = json.loads(line)
        by_method = {r["method"]: r["value"] for r in record["results"]}
        assert by_method["forests"] == by_method["tau_contracted"]


def test_sweep_empty_range(tmp_path):
    # every (n, k) here has n < 2k+1, so each is skipped
    out = tmp_path / "empty.csv"
    result = invoke(
        ["sweep", "--n-range", "3:4", "--k-range", "2:2",
         "--quantity", "tau", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text() == "n,k,ell,method,value,err_bound\n"


@pytest.mark.parametrize("n_range, k_range", [("9:5", "1:1"), ("5:5", "2:1")])
def test_sweep_reversed_range(tmp_path, n_range, k_range):
    out = tmp_path / "reversed.csv"
    result = invoke(
        ["sweep", "--n-range", n_range, "--k-range", k_range,
         "--quantity", "tau", "--out", str(out)],
    )
    assert result.exit_code == 2
    assert "reversed" in result.output
    assert not out.exists()


def test_sweep_unwritable_path():
    result = invoke(
        ["sweep", "--n-range", "5:5", "--k-range", "1:1",
         "--quantity", "tau", "--out", "/nonexistent-dir/t.csv"],
    )
    assert result.exit_code == 3


def test_sweep_bad_range(tmp_path):
    result = invoke(
        ["sweep", "--n-range", "x:y", "--k-range", "1:1",
         "--quantity", "tau", "--out", str(tmp_path / "t.csv")],
    )
    assert result.exit_code == 2
