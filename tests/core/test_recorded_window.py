"""The controller decides from a recorded probe window.

``golden/controller_dense_window.json`` is the first fixture whose
windows are long enough (80 probes, ``min_probes_for_estimator`` 40) to
reach the Section 5.3 estimator; every experiment golden stops short of
it.  ``decide`` on the reloaded record must be the live cycle to the bit,
and must keep the targets pinned at the decision's 1e-3 b/s grain on any
numpy build — the grain exists to make decisions independent of the
build, and CI runs this file on the oldest and the latest numpy.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import decide

_GOLDEN = str(Path(__file__).resolve().parent / "golden")
if _GOLDEN not in sys.path:
    sys.path.insert(0, _GOLDEN)
import record_window  # noqa: E402


@pytest.fixture(scope="module")
def recorded():
    return record_window.load()


def test_the_window_reaches_both_estimator_cases(recorded):
    window, routes, kwargs, _ = recorded
    assert len(window.links) == 16
    assert all(p.data.size == p.ack.size == 80 for p in window.links.values())
    cases = [e.estimator_case for e in decide(window, routes, **kwargs).link_estimates.values()]
    assert (cases.count(1), cases.count(2)) == (9, 7)


def test_the_pinned_targets_hold_at_the_decision_grain(recorded):
    window, routes, kwargs, targets = recorded
    assert len(targets) == 12
    assert decide(window, routes, **kwargs).target_outputs_bps == targets


def test_the_recorded_decision_is_the_live_cycle(recorded):
    window, routes, kwargs, _ = recorded
    controller = record_window.build_live()
    try:
        assert controller._flow_routes() == routes
        assert record_window.settings(controller) == kwargs
        live_window = controller.network.probe_window(controller.links, controller.probing_window)
        live = controller.optimize()
    finally:
        controller.network.close()
    assert list(live_window.links) == list(window.links)
    for link, probes in window.links.items():
        assert live_window.links[link].rate == probes.rate
        np.testing.assert_array_equal(live_window.links[link].data, probes.data)
        np.testing.assert_array_equal(live_window.links[link].ack, probes.ack)
    assert live_window.ack_loss_rates == window.ack_loss_rates
    assert live_window.mac_config == window.mac_config
    replayed = decide(window, routes, **kwargs)
    assert replayed.link_estimates == live.link_estimates
    assert replayed.conflict_graph.adjacency == live.conflict_graph.adjacency
    np.testing.assert_array_equal(replayed.optimization.flow_rates, live.optimization.flow_rates)
    assert replayed.target_outputs_bps == live.target_outputs_bps
    assert replayed.input_rates_bps == live.input_rates_bps
