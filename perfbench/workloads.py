"""The benchmark's workloads.

Each workload builds its inputs from a seed in ``setup`` and runs one
timed pass over them in ``run``, calling only public ``coopercept``
functions. A pass returns one :class:`Row` per scored experiment row.

The seed is the scenarios' own seed: it drives the camera detector's noise
and the channel's latency draws. The scripted walks do not depend on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from coopercept import pipeline
from coopercept.evaluation import aggregate
from coopercept.scenarios import BUILTIN_SCENARIOS, ScenarioConfig

DEFAULT_SEED = 7

# Simulated seconds per scenario. The paper's runs are longer; these fit
# several passes into one measured run on a two-core host, and still give
# every exercised layer at least 100 calls.
PAPER_GRID_DURATION_S = 4.0
LOCAL_METHODS_DURATION_S = 5.0
CENTER_REPLAY_DURATION_S = 5.0

# center_replay grid of (mean delay ms, jitter ms): the ideal channel, then
# every pair. A 40 ms jitter reorders arrivals from one node; 8 ms rarely
# does.
REPLAY_DELAYS_MS = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)
REPLAY_JITTERS_MS = (8.0, 40.0)
REPLAY_GRID = [(0.0, 0.0)] + [(d, j) for d in REPLAY_DELAYS_MS for j in REPLAY_JITTERS_MS]
FUSION_METHODS = (("baseline", False), ("delay_aware", True))


@dataclass(frozen=True)
class Row:
    """One scored experiment row; ``text`` is its exact serialization."""

    text: str
    method: str
    precision: float
    recall: float
    avg_de_m: float
    frames: int


@dataclass(frozen=True)
class Workload:
    name: str
    proposed: str  # the paper's method, reported as *.proposed
    reference: tuple[str, ...]  # its comparison, reported as *.reference
    expected_rows: int
    duration_s: float
    setup: Callable[[int, float], object]
    run: Callable[[object], list[Row]]


def _pipeline_row(row: dict) -> Row:
    return Row(text=",".join(row[c] for c in pipeline.METRIC_COLUMNS),
               method=row["method"], precision=float(row["precision"]),
               recall=float(row["recall"]), avg_de_m=float(row["avg_de_m"]),
               frames=int(row["frames"]))


def _scenario(name: str, seed: int, duration_s: float):
    return dataclasses.replace(BUILTIN_SCENARIOS[name](seed), duration_s=duration_s)


# -- paper_grid ---------------------------------------------------------------

def _paper_grid_setup(seed: int, duration_s: float):
    configs = [_scenario(name, seed, duration_s) for name in BUILTIN_SCENARIOS]
    # run_delay_eval takes only the config and simulates the world itself;
    # simulating here once keeps the simulator's set-up cost in setup_s.
    for config in configs:
        pipeline.simulate_world(config)
    return configs


def _paper_grid_run(configs) -> list[Row]:
    return [_pipeline_row(r) for c in configs for r in pipeline.run_delay_eval(c)]


# -- local_methods ------------------------------------------------------------

def _local_methods_setup(seed: int, duration_s: float):
    config = _scenario("nine_pedestrians", seed, duration_s)
    pipeline.simulate_world(config)
    return config


def _local_methods_run(config) -> list[Row]:
    return [_pipeline_row(r) for r in pipeline.run_local_eval(config)]


# -- center_replay ------------------------------------------------------------

@dataclass(frozen=True)
class ReplayInputs:
    config: object
    world_frames: list
    messages_by_node: dict


def _center_replay_setup(seed: int, duration_s: float) -> ReplayInputs:
    config = _scenario("nine_pedestrians", seed, duration_s)
    world_frames = pipeline.simulate_world(config)
    messages = {node.node_id: pipeline.run_node(config, node, world_frames).messages
                for node in config.nodes}
    return ReplayInputs(config, world_frames, messages)


def _center_replay_run(inputs: ReplayInputs) -> list[Row]:
    config = inputs.config
    frame_times = [t for t, _ in inputs.world_frames]
    rows = []
    for delay_ms, jitter_ms in REPLAY_GRID:
        net_seed = [config.seed, round(delay_ms * 1000), round(jitter_ms * 1000)]
        for method, delay_aware in FUSION_METHODS:
            cycles = pipeline.replay_fusion(inputs.messages_by_node, frame_times,
                                            delay_ms, jitter_ms, net_seed, config,
                                            delay_aware)
            scores = pipeline.score_cycles(cycles, inputs.world_frames, config)
            precision, recall, avg_de = aggregate(scores)
            text = ",".join((config.name, repr(delay_ms), repr(jitter_ms), method,
                             repr(precision), repr(recall), repr(avg_de),
                             str(len(scores)), str(config.seed)))
            rows.append(Row(text, method, precision, recall, avg_de, len(scores)))
    return rows


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="paper_grid",
            proposed="delay_aware", reference=("baseline",),
            expected_rows=len(BUILTIN_SCENARIOS) * len(ScenarioConfig.delay_grid_ms)
            * len(FUSION_METHODS),
            duration_s=PAPER_GRID_DURATION_S,
            setup=_paper_grid_setup, run=_paper_grid_run),
        Workload(
            name="local_methods",
            proposed="hierarchical", reference=("dbscan1", "dbscan2"),
            expected_rows=2 * len(pipeline.LOCAL_METHODS),  # two nodes
            duration_s=LOCAL_METHODS_DURATION_S,
            setup=_local_methods_setup, run=_local_methods_run),
        Workload(
            name="center_replay",
            proposed="delay_aware", reference=("baseline",),
            expected_rows=len(REPLAY_GRID) * len(FUSION_METHODS),
            duration_s=CENTER_REPLAY_DURATION_S,
            setup=_center_replay_setup, run=_center_replay_run),
    )
}
