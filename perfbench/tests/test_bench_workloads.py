import json

import pytest

import run
import workloads
from coopercept import pipeline, transport
from coopercept.global_fusion import CenterNode
from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Long enough that every scenario scores frames after its 1 s settle window.
SMOKE_DURATION_S = 1.5


def test_seed_changes_the_generated_inputs():
    setup = workloads.WORKLOADS["center_replay"].setup
    first = setup(7, 1.0)
    assert setup(7, 1.0).messages_by_node == first.messages_by_node
    assert setup(8, 1.0).messages_by_node != first.messages_by_node


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name):
    result = run.measure(workloads.WORKLOADS[name], 7, 0.01, trace=False,
                         duration_s=SMOKE_DURATION_S)
    assert result.checker.failed == 0, result.checker.problems
    assert result.checker.attempted == workloads.WORKLOADS[name].expected_rows
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result.metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_rows_match_and_wrappers_are_restored(name):
    originals = (pipeline.run_node, pipeline.scan_lidar, transport.encode,
                 vars(CenterNode)["fuse_cycle"])
    result = run.measure(workloads.WORKLOADS[name], 7, 0.01, trace=True,
                         duration_s=SMOKE_DURATION_S)
    # one untraced and one traced pass, byte-identical rows
    assert result.checker.failed == 0, result.checker.problems
    assert len(result.pass_times[False]) == len(result.pass_times[True]) == 1
    assert set(result.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert (pipeline.run_node, pipeline.scan_lidar, transport.encode,
            vars(CenterNode)["fuse_cycle"]) == originals
    assert result.metrics["pipeline.node_frame.method_ms_p50"] > 0
    assert result.metrics["evaluation.match_frame.calls"] > 0
