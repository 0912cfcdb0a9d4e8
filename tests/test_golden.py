"""Byte gate for the simulation streams.

`data/hit_golden.json` holds `hit --format json` output of the `simulate`
and `all` methods recorded from the per-walk generator implementation
(one `numpy.random.Generator(Philox(key=(seed, walk)))` per walk, kept as
`oracles.simulate_reference`).  Any change to the draws, their order or the
statistics shows up here as a byte difference.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from cyclepow.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "hit_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["args"] for case in GOLDEN])
def test_hit_output_matches_recorded_bytes(case):
    result = CliRunner().invoke(main, case["args"].split())
    assert result.exit_code == 0, result.output
    assert result.output == case["output"]
