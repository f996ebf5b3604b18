"""The lifetime contract of a run: a finished run frees itself.

A network that ran is cyclic by construction (queued events, stored
bound methods, registered handlers), so ``Experiment.run`` closes the
scenario it built (``MeshNetwork.close``) and reference counting alone
frees the graph — no ``gc.collect()`` anywhere under ``src/repro``.
Every check here therefore runs with the cyclic collector *disabled*
(and swept beforehand): what is gone afterwards, reference counting
freed.  A cycle someone adds later fails ``test_a_finished_run_frees_itself``
with the type histogram of what was left behind, so it names itself.

See "Lifetime" in ``docs/architecture.md``.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
import repro.experiment.runner as runner_module
from repro.core.optimizer import SolverError
from repro.core.controller import OnlineOptimizer
from repro.experiment.runner import Experiment, run_experiment
from repro.experiment.specs import ChurnSpec, ControllerSpec, ExperimentSpec

from _helpers import FAST_SPEC
from test_golden import golden


def _short(name: str, **changes: object) -> ExperimentSpec:
    """A ``DIGEST_SPECS`` row cut down to a few simulated seconds."""
    spec = golden.DIGEST_SPECS[name]
    return dataclasses.replace(
        spec,
        probing=dataclasses.replace(spec.probing, warmup_s=3.0),
        cycles=1,
        cycle_measure_s=2.0,
        settle_s=0.5,
        **changes,
    )


#: Every golden experiment (TCP and UDP, controller on and off), every
#: moving part a scenario can declare, and the ledger's ``sweep_tiny``
#: cell shape (controller off, three-node chain, a fraction of a second).
SPECS: dict[str, ExperimentSpec] = {
    **golden.GOLDEN_SPECS,
    "mobility-waypoint": _short("mobility-waypoint"),
    "mobility-drift": _short(
        "mobility-drift", controller=ControllerSpec(enabled=False)
    ),
    # Both failures and one rejoin land inside the shortened run, so
    # quiesced and revived MACs are part of what gets torn down.
    "churn": _short(
        "churn",
        scenario=dataclasses.replace(
            golden.DIGEST_SPECS["churn"].scenario,
            churn=ChurnSpec(num_events=2, start_s=1.0, end_s=3.5, down_s=1.0),
        ),
    ),
    "monitors": _short("monitors"),
    "tiny": dataclasses.replace(FAST_SPEC, cycle_measure_s=0.3, settle_s=0.1),
}


@pytest.fixture(scope="module", autouse=True)
def _lazy_imports_loaded() -> None:
    """One controller-on run before anything is measured: the first run
    imports the modules it needs, and an import leaves cyclic garbage of
    its own that is not the run's."""
    run_experiment(SPECS["chain"], cache=False)


@contextmanager
def reference_counting_only():
    """Sweep once, then keep the cyclic collector off for the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_garbage() -> Counter:
    """Type histogram of what a full collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.fixture
def built_networks(monkeypatch) -> list:
    """Weak references to the network of every scenario the runner builds."""
    networks: list = []
    build_scenario = runner_module.build_scenario

    def recording(spec):
        scenario = build_scenario(spec)
        networks.append(weakref.ref(scenario.network))
        return scenario

    monkeypatch.setattr(runner_module, "build_scenario", recording)
    return networks


@pytest.mark.parametrize("name", SPECS)
def test_a_finished_run_frees_itself(name: str, built_networks: list) -> None:
    spec = SPECS[name]
    with reference_counting_only():
        result = run_experiment(spec, keep_decisions=True, cache=False)
        [network] = built_networks
        assert network() is None, "the network outlived run_experiment"
        garbage = cyclic_garbage()
        assert not garbage, f"the run left reference cycles behind: {garbage}"
        assert result.cycles[-1].achieved_bps  # the result outlives its network

        # The deterministic stand-in for flat RSS across a batch: the
        # tracked-object count does not grow from run to run.
        del result
        after_first = len(gc.get_objects())
        for _ in range(2):
            run_experiment(spec, keep_decisions=True, cache=False)
        assert len(gc.get_objects()) - after_first <= 16
        assert all(network() is None for network in built_networks)


def test_a_run_that_raises_mid_cycle_releases_its_network(
    built_networks: list, monkeypatch
) -> None:
    run_cycle = OnlineOptimizer.run_cycle
    cycles_started = []

    def failing_on_the_second(self):
        cycles_started.append(None)
        if len(cycles_started) == 2:
            raise SolverError("injected failure")
        return run_cycle(self)

    monkeypatch.setattr(OnlineOptimizer, "run_cycle", failing_on_the_second)
    with reference_counting_only():
        # The injected error itself, not something teardown raised.
        with pytest.raises(SolverError, match="injected failure"):
            run_experiment(SPECS["chain_multicycle"], cache=False)
        [network] = built_networks
        assert network() is None, "the network outlived the failed run"
        assert not cyclic_garbage()


def test_a_caller_provided_scenario_is_the_callers_to_close() -> None:
    experiment = Experiment(SPECS["tiny"])
    scenario = experiment.build()
    with reference_counting_only():
        result = experiment.run(scenario)
        network = scenario.network
        # Untouched by the run: still live, still advancing.
        network.run(0.1)
        assert network.now == pytest.approx(result.sim_time_s + 0.1)
        assert network.sim.processed_events > result.events_processed

        scenario.close()
        scenario.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            network.run(0.1)
        assert scenario.flows[0].throughput_bps(0.0, network.now) > 0  # still readable

        alive = weakref.ref(network)
        del scenario, network
        assert alive() is None
        assert not cyclic_garbage()


def test_no_run_touches_gc_only_the_fork_host_freezes() -> None:
    """A finished run frees itself: nothing under ``src/repro`` collects,
    disables or tunes the collector.  The one ``gc`` call is the fork
    host's ``gc.freeze()`` in ``worker.serve_forks``, which runs no cell:
    it only keeps the host's start-up heap out of its drainers'
    collections."""
    imports, calls = [], []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [
                    f"{path.name}:{alias.name} as {alias.asname}"
                    if alias.asname else path.name
                    for alias in node.names if alias.name.split(".")[0] == "gc"
                ]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gc":
                imports.append(f"{path.name}:from gc")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            ):
                calls.append(f"{path.name}:gc.{node.attr}")
    assert imports == ["worker.py"], f"a finished run frees itself; gc in {imports}"
    assert calls == ["worker.py:gc.freeze"], calls
