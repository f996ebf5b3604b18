"""The controller decides from a recorded probe window.

``golden/controller_dense_window.json`` is the first fixture whose
windows are long enough (80 probes, ``min_probes_for_estimator`` 40) to
reach the Section 5.3 estimator; every experiment golden stops short of
it.  ``decide`` on the reloaded record must be the live cycle to the bit,
and must keep the targets pinned at the decision's 1e-3 b/s grain on any
numpy build — the grain exists to make decisions independent of the
build, and CI runs this file on the oldest and the latest numpy.

One decision's work is also counted, not timed: the number of Python
function calls it makes into ``repro`` (``sys.setprofile``; the
interpreter may predate ``sys.monitoring``), and so is one live window
read's.  The measure -> model half is one array pass and the window one
stacked read, so a per-link or per-pair Python loop that comes back
shows up here as a count over the ceiling, whatever the machine's noise.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.controller import decide


@pytest.fixture(scope="module")
def recorded(recorded_window):
    return recorded_window.load()


def test_the_window_reaches_both_estimator_cases(recorded):
    window, routes, kwargs, _ = recorded
    assert len(window.links) == 16
    assert window.losses.shape == (32, 80) and set(window.lengths.tolist()) == {80}
    cases = [e.estimator_case for e in decide(window, routes, **kwargs).link_estimates.values()]
    assert (cases.count(1), cases.count(2)) == (9, 7)


def test_the_pinned_targets_hold_at_the_decision_grain(recorded):
    window, routes, kwargs, targets = recorded
    assert len(targets) == 12
    assert decide(window, routes, **kwargs).target_outputs_bps == targets


@pytest.fixture(scope="module")
def live(recorded_window):
    """The ``controller_dense`` cell after its probing warm-up."""
    controller = recorded_window.build_live()
    yield controller
    controller.network.close()


def test_the_recorded_decision_is_the_live_cycle(recorded_window, recorded, live):
    controller = live
    window, routes, kwargs, _ = recorded
    assert controller._flow_routes() == routes
    assert recorded_window.settings(controller) == kwargs
    live_window = controller.network.probe_window(controller.links, controller.probing_window)
    decision = controller.optimize()
    assert live_window == window
    replayed = decide(window, routes, **kwargs)
    assert replayed.link_estimates == decision.link_estimates
    assert replayed.conflict_graph.adjacency == decision.conflict_graph.adjacency
    np.testing.assert_array_equal(replayed.optimization.flow_rates, decision.optimization.flow_rates)
    assert replayed.target_outputs_bps == decision.target_outputs_bps
    assert replayed.input_rates_bps == decision.input_rates_bps


def test_a_window_equals_its_reload_and_not_a_flipped_copy(recorded_window):
    """Measurement records compare by value: two loads of the recording
    are equal, and one flipped probe or one changed ACK-table entry is
    not."""
    first, second = recorded_window.load()[0], recorded_window.load()[0]
    assert first == second and not first != second
    assert first.probes == second.probes
    losses = first.losses.copy()
    losses[5, 40] ^= 1
    flipped = dataclasses.replace(first, losses=losses)
    assert flipped != second
    assert flipped.probes != second.probes
    ack_loss = first.ack_loss.copy()
    ack_loss[0, 1] = 1.0 - ack_loss[0, 1]
    assert dataclasses.replace(first, ack_loss=ack_loss) != second
    assert first != None  # noqa: E711


#: Python calls into ``repro`` one ``decide`` on the recording makes,
#: the interior-point solve's 11 point evaluations included; the
#: per-link and per-pair code the array pass replaced made 675.  The
#: work-array Newton step calls the same Python functions as the
#: allocating one, so the count it left is the one it found.
CALL_CEILING = 131


def _calls_into_repro(run) -> Counter[str]:
    """The Python function calls ``run()`` makes into ``repro``, by name.
    ``sys.setprofile`` sees Python frames and C functions only: numpy's
    ufunc operators emit no event, so this counts calls into the package,
    not array operations."""
    package = str(Path(repro.__file__).parent)
    calls: Counter[str] = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_one_decision_makes_a_bounded_number_of_python_calls(recorded):
    window, routes, kwargs, _ = recorded
    decide(window, routes, **kwargs)  # fill the per-length caches first
    calls = _calls_into_repro(lambda: decide(window, routes, **kwargs))
    assert 0 < sum(calls.values()) <= CALL_CEILING, calls.most_common()


#: Python calls into ``repro`` one live ``probe_window(links, 80)`` makes:
#: a label and a window per probe stream (32 series, 18 ACK senders), a
#: rate per link; the per-stream read it replaced made 157.
WINDOW_CALL_CEILING = 126


def test_one_window_read_makes_a_bounded_number_of_python_calls(live):
    network, links = live.network, live.links
    calls = _calls_into_repro(lambda: network.probe_window(links, 80))
    assert 0 < sum(calls.values()) <= WINDOW_CALL_CEILING, calls.most_common()
    assert calls["loss_matrix"] == 1 and "loss_series" not in calls
