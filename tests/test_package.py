"""The package API and the callers of it outside the tests.

`cyclepow.__all__` holds what the README, the CLI and the scripts import,
plus the exception types; every other helper is imported from its module.
The two scripts and the README's library snippet run here in fresh
processes, so a name they need cannot leave the API unnoticed.  Fresh
processes also show that numpy is loaded only to simulate walks.  Guard
bits are named in spectral alone, and no module reaches for another's
private names.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cyclepow

ROOT = Path(__file__).resolve().parent.parent

API = {
    "GraphSpec",
    "hit_exact",
    "hit_spectral",
    "hit_closed",
    "hit_closed_literal",
    "hit_simulate",
    "GENERATOR_ID",
    "tau_det",
    "tau_eigen",
    "tau_product",
    "resistance",
    "forests",
    "tau_contracted",
    "arboreal_counts",
    "cached_factorization",
    "build_phi",
    "build_psi",
    "run_verification",
    "CyclepowError",
    "ParameterError",
    "ConsistencyError",
    "PrecisionError",
    "DegeneracyError",
    "SimulationBudgetError",
}


def test_package_api_is_pinned_and_importable():
    assert sorted(cyclepow.__all__) == sorted(API)
    namespace = {}
    exec("from cyclepow import *", namespace)
    assert API <= namespace.keys()


# Helpers that one module shares with another, kept out of __all__ (the
# benchmark tracer wraps what is listed there).
SHARED_HELPERS = {
    "spectral": [
        "working_bits",
        "working_precision",
        "round_shift",
        "round_divide",
        "to_fixed",
        "gaussian_product",
    ],
    "recurrences": ["ratio_bits", "fixed_ratios"],
    "hitting": ["fraction_bits", "fixed_eigenvalues"],
}


def test_guard_bits_are_named_only_in_spectral():
    # Every other module takes its working precision from working_bits or
    # working_precision.
    package = ROOT / "src" / "cyclepow"
    naming = [p.name for p in package.glob("*.py") if "_GUARD_BITS" in p.read_text()]
    assert naming == ["spectral.py"]
    for module, names in SHARED_HELPERS.items():
        listed = vars(cyclepow)[module].__all__
        assert [name for name in names if name in listed] == [], module


def test_no_module_imports_another_modules_private_name():
    # A name one module shares with another is public (SHARED_HELPERS).
    # Checked: `from .module import _name`, and `module._name` for a package
    # module bound by `from . import module`.
    offences = []
    for path in sorted((ROOT / "src" / "cyclepow").glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
                if node.module is None:
                    siblings.update(names)
                else:
                    offences += [(path.name, n) for n in names if n.startswith("_")]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
            ):
                offences.append((path.name, f"{node.value.id}.{node.attr}"))
    assert offences == []


def run_python(*args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv, line, last_line",
    [
        (
            ["scripts/worked_cases.py", "--kmax", "3", "--n", "9"],
            "root 0:  gamma = (-1.5 + 1.32287565553j) (and its conjugate)",
            "4       987/107",
        ),
        (["scripts/erratum_report.py"], "", "verified form is exact everywhere"),
    ],
)
def test_script_runs(argv, line, last_line):
    result = run_python(*argv)
    assert result.returncode == 0, result.stderr
    assert line in result.stdout
    assert last_line in result.stdout.strip().splitlines()[-1]


def test_readme_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S).group(1)
    result = run_python("-c", snippet)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "55/3"


@pytest.mark.parametrize("module", ["cyclepow", "cyclepow.cli"])
def test_import_does_not_load_numpy(module):
    result = run_python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


CLI_PROBE = """
import sys
from cyclepow.cli import main
main.main(args=sys.argv[1:], prog_name="cyclepow", standalone_mode=False)
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "args, loads_numpy",
    [
        ("trees --n 30 --k 3 --ell 7", False),
        ("hit --n 30 --k 3 --ell 7 --method exact", False),
        ("hit --n 30 --k 3 --ell 7 --method spectral", False),
        ("hit --n 30 --k 3 --ell 7 --method closed", False),
        ("sweep --n-range 5:12 --k-range 1:3 --quantity hit", False),
        ("verify --kmax 1 --nmax 5", False),
        ("hit --n 30 --k 3 --ell 7 --method simulate --walks 100", True),
    ],
)
def test_only_simulation_loads_numpy(args, loads_numpy, tmp_path):
    argv = args.split()
    if argv[0] == "sweep":
        argv += ["--out", str(tmp_path / "sweep.csv")]
    result = run_python("-c", CLI_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loads_numpy)


def test_cli_prints_exact_values_past_the_int_digit_limit():
    # tau at (1000, 3) has 648 digits, past the least limit CPython accepts.
    result = run_python(
        "-X", "int_max_str_digits=640", "-m", "cyclepow.cli",
        "trees", "--n", "1000", "--k", "3",
    )
    assert result.returncode == 0, result.stderr
    row = next(line for line in result.stdout.splitlines() if "method=tau_det" in line)
    assert row.split("value=")[1] == str(cyclepow.tau_det(cyclepow.GraphSpec(1000, 3)))
