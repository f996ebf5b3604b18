"""The controller's measure -> model half against the per-link, per-pair
code it replaced (``_parent_oracles``): the probe window, every
``LinkEstimate`` field and the conflict graph's adjacency must be ``==``
on the states the performance ledger times, on the recorded
``controller_dense`` window and on the conventions for probe-less links.
On the same states the solve is refereed, once, by the SLSQP call it
replaced."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import _parent_oracles as oracle
from repro.core import CapacityModel, OnlineOptimizer, RateOptimizer, decide
from repro.core.extreme_points import non_dominated_rows
from repro.net.routing import build_routing_matrix
from repro.net.probing import ProbingSystem
from repro.sim import MeshNetwork, chain_topology, no_shadowing_propagation

_REPO = Path(__file__).resolve().parents[2]
_LEDGER = _REPO / "benchmarks" / "ledger"
for _path in (_LEDGER, Path(__file__).resolve().parent / "golden"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import ledger_cells  # noqa: E402
import ledger_controller  # noqa: E402
import record_window  # noqa: E402
from ledger_replay import replay_cell  # noqa: E402
from ledger_spec import SMOKE  # noqa: E402
from ledger_tracing import NullTracer  # noqa: E402


def _assert_equals_oracles(controller: OnlineOptimizer) -> dict:
    window = controller.network.probe_window(controller.links, controller.probing_window)
    assert list(window.links) == controller.links
    # The stacked read is the parent's per-stream one, dtypes included.
    per_stream = oracle.probe_window(
        controller.network, controller.links, controller.probing_window
    )
    assert window == per_stream
    assert [a.dtype for a in (window.losses, window.lengths, window.ack_loss)] == [
        a.dtype for a in (per_stream.losses, per_stream.lengths, per_stream.ack_loss)
    ]
    estimates = controller.estimate_links()
    assert list(estimates) == controller.links
    assert {link: dataclasses.astuple(est) for link, est in estimates.items()} == (
        oracle.estimate_links(
            window, controller.payload_bytes, controller.min_probes_for_estimator
        )
    )
    graph = controller.build_conflict_graph()
    assert graph.links == controller.links
    assert graph.adjacency == oracle.conflict_adjacency(
        window, controller.connectivity_threshold
    )
    decision = controller.optimize()
    assert decision.link_estimates == estimates
    assert decision.conflict_graph.adjacency == graph.adjacency
    return estimates


def _assert_slsqp_referees(controller: OnlineOptimizer) -> None:
    """The interior-point solve of a live cycle's program against the
    parent's SLSQP call on the same presolved program: at least as good
    an objective, the same rates to what SLSQP resolved."""
    decision = controller.optimize()
    region = decision.region
    routing = build_routing_matrix(controller._flow_routes(), links=region.links)
    optimizer = RateOptimizer(region, routing, controller.utility)
    result = optimizer.solve()
    assert result.success
    np.testing.assert_array_equal(result.flow_rates, decision.optimization.flow_rates)
    parent_rates, _, parent_success = oracle.slsqp_solve(optimizer)
    assert parent_success
    parent_objective = controller.utility.value(np.maximum(parent_rates, optimizer.rate_floor))
    assert result.objective >= parent_objective - 1e-9
    np.testing.assert_allclose(result.flow_rates, parent_rates, rtol=1e-4)
    assert result.alpha.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.delete(result.alpha, non_dominated_rows(region.extreme_points)) == 0.0)
    assert region.contains(result.link_rates, tolerance=1e-9 * region.extreme_points.max())


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 8])
def test_controller_dense_state(seed):
    """The frozen state ``controller_dense`` times: 16 links, S = 80."""
    state = ledger_controller.setup("controller_dense", seed, SMOKE)
    try:
        estimates = _assert_equals_oracles(state.controller)
        assert len(estimates) == 16
        assert {est.estimator_case for est in estimates.values()} == {1, 2}
        _assert_slsqp_referees(state.controller)
    finally:
        state.controller.network.close()


@pytest.mark.slow
@pytest.mark.parametrize("build", [ledger_cells.static_spec, ledger_cells.dynamic_spec])
def test_final_cycle_of_the_ledger_cells(build):
    """``cell_static`` / ``cell_dynamic``: the live controller after the
    last cycle (flows running, and mobility + churn on the dynamic one)."""
    _, controller = replay_cell(build(ledger_cells.FIRST_RUN_SEED), NullTracer(), "oracle")
    try:
        _assert_equals_oracles(controller)
        _assert_slsqp_referees(controller)
    finally:
        controller.network.close()


def test_the_recorded_window():
    """The recorded ``controller_dense`` window (both estimator cases),
    reloaded from JSON with no network behind it."""
    window, routes, kwargs, _ = record_window.load()
    decision = decide(window, routes, **kwargs)
    assert {link: dataclasses.astuple(est) for link, est in decision.link_estimates.items()} == (
        oracle.estimate_links(window, kwargs["payload_bytes"], kwargs["min_probes_for_estimator"])
    )
    assert decision.conflict_graph.adjacency == oracle.conflict_adjacency(
        window, kwargs["connectivity_threshold"]
    )


# ------------------------------------------- directions the estimator never sees
def _chain(seed: int = 21) -> tuple[MeshNetwork, list]:
    net = MeshNetwork(
        chain_topology(3, spacing_m=60.0),
        seed=seed,
        propagation=no_shadowing_propagation(),
        data_rate_mbps=11,
    )
    return net, [net.add_udp_flow([0, 1, 2]), net.add_udp_flow([1, 2])]


@pytest.mark.parametrize("min_probes", [0, 40])
def test_a_direction_with_no_probes_reads_as_a_perfect_link(min_probes):
    """The capacity model's convention for an empty window is loss 0.0
    (Case 1), the opposite of ``ProbingSystem.loss_rate``'s 1.0 for the
    same stream — ROADMAP item 6 carries the question; this pins what
    the controller does today."""
    net, flows = _chain()
    probing = net.enable_probing(start=False)
    controller = OnlineOptimizer(
        net, flows, probing_window=80, min_probes_for_estimator=min_probes
    )
    estimates = _assert_equals_oracles(controller)
    nominal = CapacityModel(1470, net.link_rate((0, 1)), net.mac_config)
    for link, estimate in estimates.items():
        assert probing.loss_series(*link, "data", 80).size == 0
        assert probing.loss_rate(*link, "data", 80) == 1.0
        assert (estimate.data_loss, estimate.ack_loss, estimate.channel_loss) == (0.0, 0.0, 0.0)
        assert estimate.estimator_case == 1
        assert estimate.capacity_bps == nominal.nominal_throughput_bps()


@pytest.mark.parametrize("min_probes", [1, 12, 40, 41])
def test_short_windows_keep_the_raw_rate_and_long_ones_are_estimated(min_probes):
    """20 s of probing at 0.5 s is ~40 probes a direction, and the three
    nodes' counts differ by one or two: some directions fall below
    ``min_probes_for_estimator`` (raw mean, Case 1), the others go
    through the batch together at mixed lengths."""
    net, flows = _chain()
    net.enable_probing(period_s=0.5)
    net.run(20.0)
    controller = OnlineOptimizer(
        net, flows, probing_window=200, min_probes_for_estimator=min_probes
    )
    estimates = _assert_equals_oracles(controller)
    probing = net.probing
    for (tx, rx), estimate in estimates.items():
        series = probing.loss_series(tx, rx, "data", 200)
        if series.size < min_probes:
            assert estimate.data_loss == float(series.mean())


# ------------------------------------------------------------------ the goldens
def _golden_module():
    path = _REPO / "tests" / "experiment" / "golden" / "regenerate.py"
    spec = importlib.util.spec_from_file_location("golden_regenerate_for_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_no_golden_reads_a_probe_less_direction(monkeypatch):
    """The 0.0-vs-1.0 inconsistency above cannot have shaped a golden:
    every window a golden run hands the capacity estimator holds probes."""
    golden = _golden_module()
    sizes: list[int] = []
    loss_matrix = ProbingSystem.loss_matrix

    def recording(self, *args, **kwargs):
        losses, lengths = loss_matrix(self, *args, **kwargs)
        sizes.extend(lengths.tolist())
        return losses, lengths

    monkeypatch.setattr(ProbingSystem, "loss_matrix", recording)
    controlled = [name for name, spec in golden.GOLDEN_SPECS.items() if spec.controller.enabled]
    for name in controlled:
        assert golden.compute(name) == golden.golden_path(name).read_text(encoding="utf-8")
    assert len(controlled) >= 5 and len(sizes) >= 2 * len(controlled)
    assert min(sizes) > 0
