"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_grid --seed 7 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the run times the set-up in several fresh processes,
from process start to the end of the workload's set-up, and reports their
median; then it sets up once itself and repeats timed passes until
the next one would end after ``--seconds``, and reports the end-to-end
metrics of BENCHMARK.json. With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics, and writes the raw spans
to ``.perfbench_out/``.

Every pass is checked: each row is valid, the expected number of rows is
present, and every pass's rows are byte-identical to the first untraced
pass. The last line of output is one JSON object; the exit code is 0 only
when every check passed.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layers import instrument, layer_metrics
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150
# Each workload runs in one single-threaded process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def row_valid(row) -> bool:
    """A scored row is valid when its ratios lie in [0, 1], its distance
    error is finite and non-negative, and it scored at least one frame."""
    return (0.0 <= row.precision <= 1.0 and 0.0 <= row.recall <= 1.0
            and math.isfinite(row.avg_de_m) and row.avg_de_m >= 0.0
            and row.frames > 0)


@dataclass
class Checker:
    """Counts attempted rows and rows that failed a check."""

    expected_rows: int
    attempted: int = 0
    failed: int = 0
    first: list | None = None  # rows of the first pass, the reference
    problems: list[str] = field(default_factory=list)

    def check(self, rows, label: str) -> None:
        texts = [r.text for r in rows]
        if self.first is None:
            self.first = rows
        reference = [r.text for r in self.first]
        bad = sum(1 for i, r in enumerate(rows)
                  if not row_valid(r) or i >= len(reference) or texts[i] != reference[i])
        missing = max(self.expected_rows - len(rows), 0)
        self.attempted += max(len(rows), self.expected_rows)
        self.failed += bad + missing
        if bad or missing:
            self.problems.append(f"{label}: {bad} rows invalid or not identical to the "
                                 f"first pass, {missing} rows missing")

    def raised(self, label: str) -> None:
        self.attempted += self.expected_rows
        self.failed += self.expected_rows
        self.problems.append(f"{label}: raised\n{traceback.format_exc()}")


@dataclass
class Measurement:
    checker: Checker
    metrics: dict[str, float]
    pass_times: dict[bool, list[float]]
    spans: list = field(default_factory=list)


def _run_passes(run_pass, seconds: float, checker: Checker, alternate: bool):
    """Repeat timed passes until the next one would end after ``seconds``.

    With ``alternate`` the passes switch between untraced (False) and
    traced (True), starting untraced, and at least one of each runs.
    Returns the pass times in seconds by traced flag.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    traced = False
    while True:
        label = f"pass {len(times[False]) + len(times[True]) + 1}"
        t0 = perf_counter()
        try:
            rows = run_pass(traced)
        except Exception:  # a failing pass is counted and ends the run
            checker.raised(label)
            return times
        elapsed = perf_counter() - t0
        times[traced].append(elapsed)
        checker.check(rows, label + (" (traced)" if traced else ""))
        if alternate:
            traced = not traced
        done = not alternate or (times[False] and times[True])
        if done and perf_counter() - start + elapsed > seconds:
            return times


def _accuracy(rows, methods) -> tuple[float, float, float]:
    chosen = [r for r in rows if r.method in methods]
    return (statistics.fmean(r.precision for r in chosen),
            statistics.fmean(r.recall for r in chosen),
            statistics.fmean(r.avg_de_m for r in chosen))


def time_setup(workload, seed: int, duration_s: float) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_child.py")),
         workload.name, str(seed), repr(duration_s)],
        capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def measure(workload, seed: int, seconds: float, trace: bool,
            duration_s: float | None = None) -> Measurement:
    """Measure one workload; ``duration_s`` overrides its simulated length."""
    duration_s = workload.duration_s if duration_s is None else duration_s
    checker = Checker(workload.expected_rows)

    if not trace:
        setup_times = [time_setup(workload, seed, duration_s) for _ in range(SETUP_REPS)]
        inputs = workload.setup(seed, duration_s)
        times = _run_passes(lambda traced: workload.run(inputs), seconds, checker, False)
        if not times[False]:
            return Measurement(checker, {}, times)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(times[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for role, methods in (("proposed", (workload.proposed,)),
                              ("reference", workload.reference)):
            p, r, d = _accuracy(checker.first, methods)
            metrics[f"precision.{role}"] = p
            metrics[f"recall.{role}"] = r
            metrics[f"avg_de_m.{role}"] = d
        return Measurement(checker, metrics, times)

    tracer = Tracer()
    inputs = workload.setup(seed, duration_s)
    instrument(tracer)
    try:
        traced_inputs = workload.setup(seed, duration_s)
    finally:
        tracer.restore()
    setup_end = len(tracer.spans)

    def run_pass(traced):
        if not traced:
            return workload.run(inputs)
        instrument(tracer)
        try:
            return workload.run(traced_inputs)
        finally:
            tracer.restore()

    times = _run_passes(run_pass, seconds, checker, True)
    if not times[True]:
        return Measurement(checker, {}, times, tracer.spans)
    metrics = layer_metrics(tracer.spans, setup_end, len(times[True]))
    # Each traced pass is compared with the untraced pass just before it,
    # which ran under nearly the same host conditions.
    metrics["trace.overhead_share"] = statistics.median(
        t / u - 1.0 for u, t in zip(times[False], times[True]))
    return Measurement(checker, metrics, times, tracer.spans)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the scenarios' own seed, 7)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "coopercept" / "__init__.py").is_file():
        print(f"run.py: no coopercept package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # imports coopercept, numpy and scipy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    result = measure(workload, seed, args.seconds, bool(args.trace))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    checker = result.checker
    if result.metrics and set(result.metrics) != set(units):
        checker.problems.append("metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result.metrics) ^ set(units))}")
        checker.failed = max(checker.failed, 1)
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if result.spans:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for span in result.spans:
                f.write(json.dumps(span) + "\n")
        print(f"spans: {len(result.spans)} written to {path.relative_to(ROOT)}")

    times = result.pass_times
    print(f"workload {workload.name}, seed {seed}, {workload.duration_s:g} s simulated, "
          f"{len(times[False])} untraced + {len(times[True])} traced passes")
    print(f"methods: proposed = {workload.proposed}, "
          f"reference = {'+'.join(workload.reference)}")
    for traced in (False, True):
        if times[traced]:
            print(f"{'traced' if traced else 'untraced'} pass times, s: "
                  + " ".join(f"{t:.3f}" for t in times[traced]))
    for name, value in result.metrics.items():
        print(f"  {name:44s} {value:14.6g} {units.get(name, '?')}")
    print(f"  {'ops':44s} {checker.attempted:14d} rows")
    print(f"  {'ops_failed':44s} {checker.failed:14d} rows")

    correct = checker.failed == 0 and bool(result.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": units[name]}
                    for name in units if name in result.metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
