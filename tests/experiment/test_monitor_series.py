"""The PDR and throughput monitor series of a short mixed TCP+UDP run,
pinned: no result golden runs a monitor, so this is the fence around
what the monitors read from the flow handles.

``golden/monitor_series.json`` holds the series and the per-flow
``sent`` / ``delivered`` counters as recorded when UDP and TCP flows
still had separate handle classes (UDP: packets accepted by the MAC /
packets received; TCP: segments sent, retransmissions included /
unique segments received).  The one flow handle must read the same
numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiment.runner import Experiment
from repro.experiment.specs import (
    ControllerSpec,
    ExperimentSpec,
    ProbingSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "monitor_series.json"

#: Two TCP and two UDP flows on a 2x3 grid, the controller programming
#: both kinds of source between its two cycles.
SPEC = ExperimentSpec(
    scenario=ScenarioSpec(
        scenario="generated",
        seed=4,
        topology=TopologySpec(kind="grid", rows=2, cols=3, spacing_m=60.0),
        workload=WorkloadSpec(
            generator="mixed_tcp_udp", num_flows=4, max_hops=3, tcp_fraction=0.5
        ),
        rate_mode="11",
    ),
    controller=ControllerSpec(probing_window=20, min_probes_for_estimator=10),
    probing=ProbingSpec(warmup_s=10.0),
    cycles=2,
    cycle_measure_s=2.0,
    settle_s=0.5,
    monitors=("pdr", "throughput"),
    monitor_interval_s=0.5,
    label="monitor-series-pin",
)


@pytest.fixture(scope="module")
def run():
    experiment = Experiment(SPEC, keep_decisions=False)
    built = experiment.build()
    try:
        result = experiment.run(scenario=built)
    finally:
        built.close()  # counters and sink logs stay readable
    return built, result


def test_the_spec_mixes_transports(run):
    built, _ = run
    assert built.meta["transports"] == ["tcp", "tcp", "udp", "udp"]


def test_monitor_series_match_the_record(run):
    _, result = run
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert result.to_dict(include_runtime=False)["monitors"] == golden["monitors"]


def test_handle_counters_match_the_record(run):
    built, _ = run
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {str(h.flow_id): h.source.sent for h in built.flows} == golden["sent"]
    assert {str(h.flow_id): h.sink.delivered for h in built.flows} == golden["delivered"]
