"""Correctness checks on the CLI's outputs.

Every check returns a list of problems; an empty list means the output is
correct.  Independent oracles are used where the paper gives them:

  k = 1:  h(0, ell) = ell (n - ell),  tau = n
  k = 2:  h(0, ell) = (2/5) ell (n - ell) + (4/5) n F_ell F_(n-ell) / F_n,
          tau = n F_n^2

For k >= 3 the routes are checked against each other: spectral and closed
values lie within their printed ``err`` of the exact value, a simulated mean
lies within SIM_SIGMAS standard errors of it, the analytic tree counts lie
within their ``err`` of the determinant count, and the forest count equals
both the contracted tree count and tau * resistance, exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from workloads import GRID_K, GRID_N, Request

SIM_SIGMAS = 6
CSV_HEADER = "n,k,ell,method,value,err_bound"


@lru_cache(maxsize=None)
def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def oracle_hit(n: int, k: int, ell: int) -> Fraction | None:
    """h(0, ell) from the paper's closed forms, or None when k > 2."""
    if k == 1:
        return Fraction(ell * (n - ell))
    if k == 2:
        return (Fraction(2, 5) * ell * (n - ell)
                + Fraction(4, 5) * n * fibonacci(ell) * fibonacci(n - ell)
                / fibonacci(n))
    return None


def oracle_tau(n: int, k: int) -> int | None:
    """Spanning-tree count from the paper's closed forms, or None when k > 2."""
    if k == 1:
        return n
    if k == 2:
        return n * fibonacci(n) ** 2
    return None


def number(text) -> Fraction:
    """Exact value of a printed number ('55/3', '12', '1.25e+40')."""
    if text is None:
        raise ValueError("missing value")
    return Fraction(text)


def _within(value: Fraction, reference: Fraction, bound: Fraction, label: str):
    gap = abs(value - reference)
    if gap > bound:
        return [f"{label}: |{float(value)!r} - {float(reference)!r}| = "
                f"{float(gap):.3e} exceeds {float(bound):.3e}"]
    return []


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _results(records: list[dict]) -> dict[str, dict]:
    return {entry["method"]: entry for record in records
            for entry in record["results"]}


def check_hit(request: Request, stdout: str) -> tuple[list[str], dict]:
    """Problems, plus the analytic values by method for pairing."""
    n, k, ell = (int(request.option(name)) for name in ("n", "k", "ell"))
    method = request.option("method")
    expected = (["exact", "spectral", "closed", "simulate"] if method == "all"
                else [method])
    records = _records(stdout)
    problems = [
        f"record for {(r['cmd'], r['n'], r['k'], r['ell'])} does not match "
        f"the request {(n, k, ell)}"
        for r in records if (r["cmd"], r["n"], r["k"], r["ell"]) != ("hit", n, k, ell)
    ]
    results = _results(records)
    if sorted(results) != sorted(expected):
        return problems + [f"methods {sorted(results)} != {sorted(expected)}"], {}

    analytic = {m: (number(results[m]["value"]), number(results[m]["err"]))
                for m in ("spectral", "closed") if m in results}
    exact = number(results["exact"]["value"]) if "exact" in results else None
    oracle = oracle_hit(n, k, ell)
    if exact is not None and oracle is not None and exact != oracle:
        problems.append(f"exact {exact} != oracle {oracle}")
    reference = exact if exact is not None else oracle
    if reference is not None:
        for name, (value, err) in analytic.items():
            problems += _within(value, reference, err, name)
    if "simulate" in results:
        entry = results["simulate"]
        record = next(r for r in records if r["results"][0]["method"] == "simulate")
        if record["seed"] != request.option("seed") or not record["generator"]:
            problems.append("simulate record lacks its seed or generator")
        mean, stderr = number(entry["value"]), number(entry["err"])
        if ell and stderr <= 0:
            problems.append("simulate reported a zero standard error")
        if reference is not None:
            problems += _within(mean, reference, SIM_SIGMAS * stderr, "simulate")
    return problems, analytic


def check_pair(first: dict, second: dict) -> list[str]:
    """Two analytic routes on the same (n, k, ell) agree within their errs."""
    problems = []
    for a, (va, ea) in first.items():
        for b, (vb, eb) in second.items():
            problems += _within(va, vb, ea + eb, f"{a} vs {b}")
    return problems


def check_trees(request: Request, stdout: str) -> list[str]:
    n, k, ell = (int(request.option(name)) for name in ("n", "k", "ell"))
    records = _records(stdout)
    if len(records) != 1 or (records[0]["n"], records[0]["k"], records[0]["ell"]) != (n, k, ell):
        return [f"expected one trees record for {(n, k, ell)}"]
    results = _results(records)
    expected = ["forests", "resistance", "tau_contracted", "tau_det",
                "tau_eigen", "tau_product"]
    if sorted(results) != expected:
        return [f"methods {sorted(results)} != {expected}"]
    tau = number(results["tau_det"]["value"])
    problems = []
    for name in ("tau_eigen", "tau_product"):
        problems += _within(number(results[name]["value"]), tau,
                            number(results[name]["err"]), name)
    oracle = oracle_tau(n, k)
    if oracle is not None and tau != oracle:
        problems.append(f"tau_det {tau} != oracle {oracle}")
    forest = number(results["forests"]["value"])
    resistance = number(results["resistance"]["value"])
    if forest != number(results["tau_contracted"]["value"]):
        problems.append("forests != tau_contracted")
    if forest != tau * resistance:
        problems.append("forests != tau_det * resistance")
    hit = oracle_hit(n, k, ell)
    if hit is not None and resistance != hit / (n * k):
        problems.append(f"resistance {resistance} != oracle {hit / (n * k)}")
    return problems


def check_verify(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    statuses = [line.split()[-1] for line in lines[1:]
                if line.split() and line.split()[-1] in ("pass", "FAIL", "info")]
    problems = [line for line in lines if line.split() and line.split()[-1] == "FAIL"]
    if not statuses or "pass" not in statuses:
        problems.append("verify printed no check lines")
    if not lines or not lines[-1].startswith("# wall_time_s="):
        problems.append("verify output is truncated")
    return problems


def expected_sweep_rows(quantity: str) -> list[tuple[int, int, int, str]]:
    """(n, k, ell, method) of every row the grid sweeps should write."""
    methods = {"hit": ("exact", "closed"), "forests": ("forests", "tau_contracted")}
    first_ell = 1 if quantity == "forests" else 0
    rows = []
    for n in range(GRID_N[0], GRID_N[1] + 1):
        for k in range(GRID_K[0], GRID_K[1] + 1):
            if n < max(3, 2 * k + 1):
                continue
            for ell in range(first_ell, n):
                rows += [(n, k, ell, method) for method in methods[quantity]]
    return rows


def check_sweep(request: Request, text: str) -> list[str]:
    quantity = request.option("quantity")
    lines = text.split("\n")
    if not lines or lines[0] != CSV_HEADER:
        return [f"sweep header is not {CSV_HEADER!r}"]
    if lines[-1] != "":
        return ["sweep file does not end with a newline"]
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != 6 for row in rows):
        return ["sweep row without six fields"]
    keys = [(int(n), int(k), int(ell), method) for n, k, ell, method, _, _ in rows]
    expected = expected_sweep_rows(quantity)
    if keys != expected:
        missing = sorted(set(expected) - set(keys))[:3]
        return [f"sweep has {len(keys)} rows, expected {len(expected)}; "
                f"first missing {missing}"]
    problems = []
    values = {key: (number(row[4]), row[5]) for key, row in zip(keys, rows)}
    for (n, k, ell, method), (value, err) in values.items():
        if quantity == "hit":
            if method == "exact":
                oracle = oracle_hit(n, k, ell)
                if oracle is not None and value != oracle:
                    problems.append(f"h({n},{k},{ell}) = {value} != oracle {oracle}")
            else:
                problems += _within(value, values[(n, k, ell, "exact")][0],
                                    number(err), f"closed at {(n, k, ell)}")
        elif method == "forests":
            if value != values[(n, k, ell, "tau_contracted")][0]:
                problems.append(f"forests != tau_contracted at {(n, k, ell)}")
            oracle, tau = oracle_hit(n, k, ell), oracle_tau(n, k)
            if oracle is not None and value != tau * oracle / (n * k):
                problems.append(f"forests at {(n, k, ell)} != oracle")
    return problems
