"""Byte-for-byte regression of the experiment CSVs.

``tests/golden`` holds the output of

    coopercept delay-eval --scenario all --duration 3 --seed 7 --out tests/golden
    coopercept local-eval --scenario all --duration 3 --seed 7 --out tests/golden

A change meant to keep behaviour must reproduce these bytes; a change
meant to alter it regenerates them with the commands above and says why.
"""

from pathlib import Path

import pytest

from coopercept.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command, name", [("delay-eval", "delay_eval.csv"),
                                           ("local-eval", "local_eval.csv")])
def test_cli_output_matches_golden_bytes(tmp_path, command, name):
    rc = main([command, "--scenario", "all", "--duration", "3", "--seed", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
