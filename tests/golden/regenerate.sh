#!/bin/sh
# Rewrite the golden files in this directory from the current source:
# delay_eval.csv, local_eval.csv and the digests of the delay-eval track
# dumps in track_dumps.sha256 (the dumps themselves are not kept).
#
#     sh tests/golden/regenerate.sh
set -eu
export LC_ALL=C  # digest order
golden=$(cd "$(dirname "$0")" && pwd)
export PYTHONPATH="$golden/../../src${PYTHONPATH:+:$PYTHONPATH}"
cd "$golden"
python3 -m coopercept.cli delay-eval --scenario all --duration 3 --seed 7 --out . --dump-tracks
python3 -m coopercept.cli local-eval --scenario all --duration 3 --seed 7 --out .
sha256sum tracks_*.jsonl > track_dumps.sha256
rm -f tracks_*.jsonl
