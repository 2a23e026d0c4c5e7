"""Byte-for-byte regression of the experiment CSVs and track dumps.

``tests/golden`` holds the output of

    coopercept delay-eval --scenario all --duration 3 --seed 7 --out tests/golden
    coopercept local-eval --scenario all --duration 3 --seed 7 --out tests/golden

and, in ``track_dumps.sha256`` (``sha256sum`` format), the digests of the
``tracks_*.jsonl`` files that the delay-eval run writes with
``--dump-tracks``. The CSVs pool precision, recall and error; the dumps
also pin global ids, contributors and staleness of every fusion cycle.

A change meant to keep behaviour must reproduce these bytes; a change
meant to alter it regenerates them with ``sh tests/golden/regenerate.sh``,
which runs the commands above (plus ``--dump-tracks`` and ``sha256sum
tracks_*.jsonl``), and says why.
"""

import hashlib
from pathlib import Path

import pytest

from coopercept.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _golden_track_digests() -> dict[str, str]:
    lines = (GOLDEN / "track_dumps.sha256").read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("command, name", [("delay-eval", "delay_eval.csv"),
                                           ("local-eval", "local_eval.csv")])
def test_cli_output_matches_golden_bytes(tmp_path, command, name):
    dump = ["--dump-tracks"] if command == "delay-eval" else []
    rc = main([command, "--scenario", "all", "--duration", "3", "--seed", "7",
               "--out", str(tmp_path), *dump])
    assert rc == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    if dump:
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.glob("tracks_*.jsonl")}
        assert digests == _golden_track_digests()
