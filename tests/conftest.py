from dataclasses import replace

import pytest

from coopercept import pipeline
from coopercept.scenarios import BUILTIN_SCENARIOS
from coopercept.tracking import Tracker


@pytest.fixture(scope="session")
def builtin_node_runs():
    """Every built-in scenario over 5 s at seeds 7 and 2411, its node
    pipelines run once per session, as ``(label, config, world_frames,
    {node_id: (tracker_inputs, messages)})`` with ``tracker_inputs`` the
    ``(observations, timestamp)`` of each ``Tracker.update`` call."""
    trackers = []

    class Recorder(Tracker):  # the node's tracker, keeping its inputs
        def __init__(self, node_id, config):
            super().__init__(node_id, config)
            self.calls = []
            trackers.append(self)

        def update(self, observations, timestamp):
            self.calls.append((observations, timestamp))
            return super().update(observations, timestamp)

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "Tracker", Recorder)
        for name, build in BUILTIN_SCENARIOS.items():
            for seed in (7, 2411):
                config = replace(build(seed), duration_s=5.0)
                frames = pipeline.simulate_world(config)
                nodes = {}
                for node in config.nodes:
                    messages = pipeline.run_node(config, node, frames).messages
                    nodes[node.node_id] = (trackers[-1].calls, messages)
                out.append((f"{name}/{seed}", config, frames, nodes))
    return out


@pytest.fixture
def solver_costs(monkeypatch):
    """``record(module)`` wraps the module's ``gated_assignment`` for the
    test and returns the list it fills with the shape and bytes of every
    cost handed to it, so that a package path and its oracle can be
    compared entry for entry."""
    def record(module):
        costs, solve = [], module.gated_assignment

        def recorded(cost):
            costs.append((cost.shape, cost.tobytes()))
            return solve(cost)
        monkeypatch.setattr(module, "gated_assignment", recorded)
        return costs
    return record
