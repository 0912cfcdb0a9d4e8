"""The package API and the callers of it outside the tests.

`cyclepow.__all__` holds what the README, the CLI and the scripts import,
plus the exception types; every other helper is imported from its module.
The two scripts and the README's library snippet run here in fresh
processes, so a name they need cannot leave the API unnoticed.  Fresh
processes also show that numpy is loaded only to simulate walks, that a
command executes only the layer modules it reads and never imports click or
dataclasses, that the spectral route never imports fractions, that a
closed stdout ends a command quietly, and that `--version` works from a
source checkout.  Guard bits
are named in spectral alone, no module reaches for another's private
names, and every Python file parses under the 3.10 grammar.
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
    assert API <= set(dir(cyclepow))


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


def test_every_python_file_parses_under_the_3_10_grammar():
    # CI also runs the suite on Python 3.10. This checks grammar only (an
    # `except*` clause fails here), not the library APIs a file calls.
    folders = ("src", "tests", "benchmark", "scripts")
    paths = [path for name in folders for path in sorted((ROOT / name).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def run_python(*args, stdout=subprocess.PIPE):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=120,
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


# A command's SystemExit ends the probe only when its exit code is not 0.
CLI_PROBE = """
import sys
from cyclepow.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    if exc.code:
        raise
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


LAYERS = (
    "graphs",
    "polynomials",
    "fractionfree",
    "spectral",
    "recurrences",
    "hitting",
    "arboreal",
    "verify",
)

# Modules whose import a request should not pay for when it does not use them.
WATCHED = ("click", "dataclasses", "fractions")

# Prints the layers in sys.modules, then those executed, then the WATCHED
# modules imported: a LazyLoader module turns into a plain module on its
# first attribute read, and type() reads no attribute.
LAYER_PROBE = """
import sys, types
from cyclepow.cli import main
if sys.argv[1:]:
    try:
        main(sys.argv[1:])
    except SystemExit as exc:
        if exc.code:
            raise
modules = {{layer: sys.modules.get("cyclepow." + layer) for layer in {layers!r}}}
print(" ".join(layer for layer, module in modules.items() if module is not None))
print(" ".join(
    layer for layer, module in modules.items() if type(module) is types.ModuleType
))
print(" ".join(name for name in {watched!r} if name in sys.modules))
""".format(layers=LAYERS, watched=WATCHED)


def layers_after(*argv):
    """The layers registered and executed after the command line `argv`
    (after the import alone when empty), and the WATCHED modules imported;
    neither click nor dataclasses ever is."""
    result = run_python("-c", LAYER_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    registered, executed, watched = result.stdout.splitlines()[-3:]
    assert {"click", "dataclasses"}.isdisjoint(watched.split())
    return registered.split(), set(executed.split()), set(watched.split())


def test_the_cli_imports_neither_click_nor_dataclasses():
    tree = ast.parse((ROOT / "src" / "cyclepow" / "cli.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert imported & {"click", "dataclasses"} == set()


def test_importing_the_cli_registers_every_layer():
    registered, executed, _ = layers_after()
    assert registered == list(LAYERS)
    assert executed <= {"graphs", "spectral"}


UNUSED_BY_ANALYTIC_HIT = {"arboreal", "fractionfree", "verify"}


@pytest.mark.parametrize(
    "args, unexecuted",
    [
        (
            "hit --n 30 --k 3 --ell 7 --method spectral",
            UNUSED_BY_ANALYTIC_HIT | {"polynomials", "recurrences"},
        ),
        ("hit --n 30 --k 3 --ell 7 --method closed", UNUSED_BY_ANALYTIC_HIT),
        ("trees --n 30 --k 3 --ell 7", {"recurrences", "verify"}),
        (
            "hit --n 30 --k 3 --ell 7 --method exact",
            {"arboreal", "polynomials", "recurrences", "verify"},
        ),
        (
            "sweep --n-range 5:9 --k-range 1:2 --quantity forests",
            {"polynomials", "recurrences", "verify"},
        ),
        ("verify --kmax 1 --nmax 5", set()),
    ],
)
def test_a_command_executes_only_the_layers_it_reads(args, unexecuted, tmp_path):
    argv = args.split()
    if argv[0] == "sweep":
        argv += ["--out", str(tmp_path / "sweep.csv")]
    registered, executed, _ = layers_after(*argv)
    assert registered == list(LAYERS)
    assert "hitting" in executed
    assert executed & unexecuted == set()


def test_the_spectral_route_imports_no_fractions():
    *_, watched = layers_after(*"hit --n 30 --k 3 --ell 7 --method spectral".split())
    assert watched == set()


# `import cyclepow` executes no layer; then each public name is imported
# from the package and compared with the object its home module defines: the
# one layer that lists it in __all__, or `errors` for the exception types.
PUBLIC_PROBE = """
import sys, types
import cyclepow
from cyclepow import errors
layers = [sys.modules["cyclepow." + layer] for layer in {layers!r}]
print(sum(type(layer) is types.ModuleType for layer in layers))
imported = {{}}
for name in cyclepow.__all__:
    exec("from cyclepow import " + name, imported)
for name in cyclepow.__all__:
    homes = [layer for layer in layers if name in layer.__all__] or [errors]
    print(name, len(homes), imported[name] is vars(homes[0])[name])
""".format(layers=LAYERS)


def test_every_public_name_imports_from_a_fresh_package():
    result = run_python("-c", PUBLIC_PROBE)
    assert result.returncode == 0, result.stderr
    executed, *rows = result.stdout.splitlines()
    assert executed == "0"
    assert rows == [f"{name} 1 True" for name in cyclepow.__all__]


def test_version_is_the_package_version_from_a_source_checkout():
    result = run_python("-m", "cyclepow.cli", "--version")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "cyclepow, version 0.1.0\n"
    # A match, not tomllib, which Python 3.10 lacks.
    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match and match.group(1) == cyclepow.__version__
    assert cyclepow.__version__ == "0.1.0"


def test_cli_prints_exact_values_past_the_int_digit_limit():
    # tau at (1000, 3) has 648 digits, past the least limit CPython accepts.
    result = run_python(
        "-X", "int_max_str_digits=640", "-m", "cyclepow.cli",
        "trees", "--n", "1000", "--k", "3",
    )
    assert result.returncode == 0, result.stderr
    row = next(line for line in result.stdout.splitlines() if "method=tau_det" in line)
    assert row.split("value=")[1] == str(cyclepow.tau_det(cyclepow.GraphSpec(1000, 3)))


def test_a_closed_stdout_ends_a_command_quietly_with_exit_code_1():
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_python(
            "-m", "cyclepow.cli", "hit", "--n", "7", "--k", "1", "--ell", "3",
            stdout=write,
        )
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, "")
