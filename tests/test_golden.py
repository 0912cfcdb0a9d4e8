"""Byte gates for CLI output.

`data/hit_golden.json` holds `hit --format json` output of the `simulate`
and `all` methods recorded from the per-walk generator implementation
(one `numpy.random.Generator(Philox(key=(seed, walk)))` per walk, kept as
`oracles.simulate_reference`).  Any change to the draws, their order or the
statistics shows up here as a byte difference.  It also holds
`hit --method closed --form seq` output up to N = 16000, two cases with
`--erratum`, recorded while every half-index and full-index term was still
reached by stepping the recurrence through every index.

`data/verify_golden.json` holds `verify --report full` output without its
`# wall_time_s` line, and `data/sweep_golden.json` the files `sweep` writes
for every quantity in csv and json, both recorded before the per-graph and
per-factor work of `verify` and `sweep` was hoisted out of their loops over
ell.  The verify file was re-recorded once, when the cosine table came to be
evaluated on one octant and mirrored and the spectral sum and eigenvalue
product folded over the half period: that moves only rounding in the guard
bits, so only the `worst` value and its location changed, in the
discrete-quadratic-identity, resolvent-periodization,
cycle-eigenvalue-product and hitting-oracle-spectral rows and the 512-bit
tree-triple-agreement row (residues near 1e-86 at 256 bits and 1e-162 at
512 bits).  Case counts, thresholds and statuses stayed the same.  It was
re-recorded a second time when the ratio-branch-invariance row, whose
statistic was always 0, was deleted and the resolvent-periodization sum was
folded over the half period: the deleted row's two lines went, and only the
resolvent-periodization row's `worst` value and its location moved.  It was
re-recorded a third time when five rows that could only pass were deleted
(symbol-factorization, psi-at-two, phi-slope-at-two, partial-fraction-shape
and ratio-symmetry): each case lost those rows' two lines each and no other
byte moved.  It was re-recorded a fourth time when the inner-root-identity
row, which could only pass, was deleted and tau_eigen came to multiply the
eigenvalue table that the spectral sum reads: both cases lost that row's two
lines, and in the 512-bit case the tree-triple-agreement row's `worst`
moved from 2.057e-162 at (n=37, k=2) to 1.139e-162 at (n=40, k=1).  No other
byte moved.  It was re-recorded a fifth time when six rows that could not
fail or repeated another row were deleted (root-spectrum-separation,
conjugate-closure, binet-recurrence-agreement, ratio-conjugation,
discrete-quadratic-identity and cycle-eigenvalue-product) and
forest-integrality was merged into forest-contraction-duality: both cases
lost those seven rows' two lines each, every other line but the notes moved
one column left (the widest id went), and forest-contraction-duality took
its new description and, in the 512-bit case, 1553 cases instead of 545 (806
stay 806 at the default bounds).  No case count, worst value, requirement,
status or worst-case location of another row moved.  It was re-recorded
a sixth time when the sequence-form ratio tables came to be built by the
same index-doubling ladder as a single ell instead of by stepping through
every index: the default case kept every byte, and in the 512-bit case only
two `worst` values and their locations moved, ratio-form-agreement from
3.473e-164 at (n=6, k=2, ell=1) to 5.210e-164 at (n=11, k=2, ell=1) and
fibonacci-anchor from 4.341e-164 at (n=12, ell=5) to 3.473e-164 at (n=9,
ell=1).  It was re-recorded a seventh time when resolvent-periodization,
tree-triple-agreement and both hitting-oracle rows came to be graded
against residual_tolerance(bits), the relative bound printed with every
analytic value, instead of a fixed 1e-10: in both cases only those four
rows' requirement cells moved, to `<= 2.94e-39` at 256 bits and
`<= 8.64e-78` at 512 bits.  No case count, worst value, status or
worst-case location moved.

`data/trees_golden.json` holds `trees` output in json, csv and text (the
text without its `# wall_time_s` line) for a few small graphs with and
without `--ell`.

Recorded before the rows of `hit`, `trees` and `sweep` were built by shared
helpers and written by one writer: `hit` in csv and text with every method
and `--erratum`, at ell = 0, with `--method spectral` and with
`--method closed --precision 96`; `trees --format csv` at (40, 5, 11) and
128 bits; and every `sweep` quantity over n 9..20, k 3..5 at 128 bits in csv
and json.  `hit --method closed --erratum --precision 96` was recorded before
the closed-form routes looked up their own factorization at the requested
precision, the one erratum case off 256 bits.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from cyclepow.cli import main

DATA = Path(__file__).parent / "data"


def load(name):
    return json.loads((DATA / name).read_text())


HIT = load("hit_golden.json")
VERIFY = load("verify_golden.json")
SWEEP = load("sweep_golden.json")
TREES = load("trees_golden.json")


def output_of(args):
    """CLI output for args; a text format loses its `# wall_time_s` line."""
    result = CliRunner().invoke(main, args.split())
    assert result.exit_code == 0, result.output
    output = result.output
    if args.endswith("--format text"):
        lines = output.splitlines(keepends=True)
        assert lines[-1].startswith("# wall_time_s=")
        output = "".join(lines[:-1])
    return output


@pytest.mark.parametrize("case", HIT, ids=[case["args"] for case in HIT])
def test_hit_output_matches_recorded_bytes(case):
    assert output_of(case["args"]) == case["output"]


@pytest.mark.parametrize("case", VERIFY, ids=[case["args"] for case in VERIFY])
def test_verify_report_matches_recorded_bytes(case):
    result = CliRunner().invoke(main, case["args"].split())
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines(keepends=True)
    assert lines[-1].startswith("# wall_time_s=")
    assert "".join(lines[:-1]) == case["output"]


@pytest.mark.parametrize("case", SWEEP, ids=[case["args"] for case in SWEEP])
def test_sweep_file_matches_recorded_bytes(case, tmp_path):
    out = tmp_path / "sweep.out"
    result = CliRunner().invoke(main, [*case["args"].split(), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == case["output"].encode("utf-8")


@pytest.mark.parametrize("case", TREES, ids=[case["args"] for case in TREES])
def test_trees_output_matches_recorded_bytes(case):
    assert output_of(case["args"]) == case["output"]
