import shutil
import subprocess
import sys

from conftest import BENCH, ROOT
from run import Checker
from workloads import Row


def _row(text="a", precision=0.5, frames=3):
    return Row(text, "m", precision, 0.5, 0.1, frames)


def test_checker_counts_invalid_changed_and_missing_rows():
    checker = Checker(expected_rows=3)
    checker.check([_row("a"), _row("b"), _row("c")], "pass 1")
    assert (checker.attempted, checker.failed) == (3, 0)
    checker.check([_row("a"), _row("B"), _row("c", precision=float("nan"))], "pass 2")
    assert (checker.attempted, checker.failed) == (6, 2)
    checker.check([_row("a"), _row("b")], "pass 3")
    assert (checker.attempted, checker.failed) == (9, 3)
    checker.check([_row("a"), _row("b"), _row("c", frames=0)], "pass 4")
    assert (checker.attempted, checker.failed) == (12, 4)
    assert len(checker.problems) == 3


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_grid",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
