"""Command-line experiment runner.

Subcommands:
  local-eval   per-node clustering comparison (three configurations)
  delay-eval   two-node delay grid, baseline vs delay-aware fusion
  simulate     dump ground-truth frames as JSONL

Scenarios come from a YAML config file or one of the built-in names.
Exit code is 0 on success and nonzero with a diagnostic on config or
I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .scenarios import BUILTIN_SCENARIOS, ScenarioConfig


class CliError(Exception):
    pass


def _load_scenarios(args) -> list[ScenarioConfig]:
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        try:
            configs = [ScenarioConfig.load(path)]
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    elif args.scenario == "all":
        configs = [build() for build in BUILTIN_SCENARIOS.values()]
    elif args.scenario in BUILTIN_SCENARIOS:
        configs = [BUILTIN_SCENARIOS[args.scenario]()]
    else:
        raise CliError(f"unknown scenario {args.scenario!r}; "
                       f"choose from {sorted(BUILTIN_SCENARIOS)} or 'all'")
    for flag, field in (("seed", "seed"), ("duration", "duration_s")):
        value = getattr(args, flag)
        if value is not None:
            try:
                configs = [replace(c, **{field: value}) for c in configs]
            except ValueError as exc:
                raise CliError(f"--{flag}: {exc}") from None
    return configs


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario YAML file")
    parser.add_argument("--scenario", default="all",
                        help="built-in scenario name or 'all' (ignored with --config)")
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--duration", type=float, default=None,
                        help="override run length in seconds")
    parser.add_argument("--out", default="out", help="output directory")


def _cmd_local_eval(args) -> int:
    configs = _load_scenarios(args)
    out = _out_dir(args)
    rows = []
    for config in configs:
        rows.extend(pipeline.run_local_eval(config))
    path = out / "local_eval.csv"
    pipeline.write_csv(path, rows, pipeline.METRIC_COLUMNS)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_delay_eval(args) -> int:
    configs = _load_scenarios(args)
    out = _out_dir(args)

    def sink(scenario, delay_ms, method, cycles):
        delay = int(delay_ms) if float(delay_ms).is_integer() else delay_ms
        name = f"tracks_{scenario}_{delay}ms_{method}.jsonl"
        pipeline.write_tracks_jsonl(out / name, cycles)

    rows = []
    for config in configs:
        rows.extend(pipeline.run_delay_eval(config, track_sink=sink if args.dump_tracks else None))
    path = out / "delay_eval.csv"
    pipeline.write_csv(path, rows, pipeline.METRIC_COLUMNS)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_simulate(args) -> int:
    configs = _load_scenarios(args)
    out = _out_dir(args)
    for config in configs:
        frames = pipeline.simulate_world(config)
        path = out / f"gt_{config.name}.jsonl"
        pipeline.write_ground_truth_jsonl(path, frames)
        print(f"wrote {path} ({len(frames)} frames)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopercept",
        description="Delay-aware cooperative indoor perception experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("local-eval", help="per-node clustering comparison")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_local_eval)

    p = sub.add_parser("delay-eval", help="delay grid: baseline vs delay-aware fusion")
    _add_scenario_args(p)
    p.add_argument("--dump-tracks", action="store_true",
                   help="also write per-cycle global track JSONL files")
    p.set_defaults(func=_cmd_delay_eval)

    p = sub.add_parser("simulate", help="dump ground-truth frames as JSONL")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
