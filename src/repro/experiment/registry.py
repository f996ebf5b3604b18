"""Scenario building: a :class:`ScenarioSpec` materialized into a live
:class:`MeshNetwork` plus flow handles (:func:`build_scenario`).

One function constructs networks: the ``generated`` scenario, the
declarative composition of the generator tables of
:mod:`repro.sim.generators` — a topology generator, flows from a
workload generator (or explicit :class:`FlowSpec`\\ s), link rates per
``rate_mode`` and an optional named radio profile.  ``chain``,
``random_multiflow`` and ``starvation`` are presets of it
(:data:`repro.experiment.specs.SCENARIO_PRESETS`): each turns the spec
it is given into a ``generated`` spec, which the same function
materializes, and reports the ``meta`` keys that name always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.experiment.specs import SCENARIO_PRESETS, FlowSpec, ScenarioSpec, SpecError
from repro.net.routing import Router, first_use_links
from repro.phy.propagation import LogDistancePathLoss
from repro.sim.dynamics import DynamicsDriver, build_mobility, generate_churn_schedule
from repro.sim.generators import (
    GeneratedFlow,
    WorkloadContext,
    assign_link_rates,
    ett_link_weights,
    radio_profile_config,
    scenario_streams,
)
from repro.sim.network import FlowHandle, MeshNetwork


@dataclass
class BuiltScenario:
    """A materialized scenario: the live network plus its flows.

    ``meta`` carries builder-specific annotations (flow roles, routed
    paths, ...) onto the experiment result; keep its values plain
    JSON-safe data so results serialize losslessly.
    """

    name: str
    spec: ScenarioSpec
    network: MeshNetwork
    flows: list[FlowHandle]
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def links(self) -> list[tuple[int, int]]:
        return first_use_links(self.flows)

    def close(self) -> None:
        """Close the network (:meth:`MeshNetwork.close`): whoever built
        the scenario calls this when done with it."""
        self.network.close()


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Materialize ``spec``: a ``generated`` spec as it is, a preset as
    the ``generated`` spec it stands for, under the preset's own name,
    spec and ``meta``."""
    if spec.scenario == "generated":
        return _build_generated(spec)
    preset = SCENARIO_PRESETS[spec.scenario]
    built = _build_generated(preset.generated(spec))
    return BuiltScenario(
        name=spec.scenario,
        spec=spec,
        network=built.network,
        flows=built.flows,
        meta=preset.meta(spec, built.flows),
    )


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------
def _add_flows(
    network: MeshNetwork, flows: "Iterable[FlowSpec | GeneratedFlow]"
) -> list[FlowHandle]:
    """Attach declarative flows — explicit :class:`FlowSpec`\\ s or a
    workload generator's :class:`GeneratedFlow`\\ s, which share the same
    field vocabulary — to the live network, in order."""
    return [
        network.add_udp_flow(
            list(flow.path), payload_bytes=flow.payload_bytes, rate_bps=flow.rate_bps
        )
        if flow.transport == "udp"
        else network.add_tcp_flow(list(flow.path), mss_bytes=flow.mss_bytes)
        for flow in flows
    ]


def _build_generated(spec: ScenarioSpec) -> BuiltScenario:
    """The one builder that constructs a network: every axis is a
    generator table entry driven purely by the spec, so new interference
    structures need parameters, not builder code.  Whatever raises once
    the network exists (a workload with no routable demands, a flow over
    a missing node) closes it first.

    Construction order (all randomness from seed-derived streams, so the
    scenario is a pure function of the spec):

    1. node positions via the topology generator (``spec.topology``);
    2. radio from the named ``spec.radio_profile`` at the scenario's
       data rate, else the default radio; the network
       shadows at the spec's σ (none by default) drawn from ``seed``, and
       ``run_seed`` (defaulting to ``seed``) seeds only its traffic;
    3. per-link modulations per ``spec.rate_mode`` (the ``mixed`` draw
       uses the stream :func:`repro.sim.generators.scenario_streams`
       picks);
    4. flows from explicit ``spec.flows``, or routed over ETT paths by
       the workload generator (``spec.workload``);
    5. dynamics, when the spec asks for them: a mobility trajectory
       and/or a churn schedule (endpoints of routed flows protected by
       default) installed through a :class:`repro.sim.dynamics.DynamicsDriver`,
       whose live ``meta`` dict lands in ``meta["dynamics"]`` so epoch
       and churn counters appear in the experiment result.
    """
    if spec.topology is None:
        raise SpecError(
            "the 'generated' scenario needs spec.topology naming a "
            "topology generator"
        )
    if not spec.flows and spec.workload is None:
        raise SpecError(
            "the 'generated' scenario needs explicit spec.flows or a "
            "spec.workload generator"
        )
    positions = spec.topology.build(seed=spec.seed)
    radio = None
    if spec.radio_profile is not None:
        radio = radio_profile_config(
            spec.radio_profile, data_rate_mbps=spec.data_rate_mbps
        )
    rates_rng, demands_rng = scenario_streams(
        spec.workload.generator if spec.workload else None, spec.seed
    )
    network = MeshNetwork(
        positions,
        seed=spec.seed if spec.run_seed is None else spec.run_seed,
        radio=radio,
        propagation=LogDistancePathLoss(
            shadowing_sigma_db=spec.shadowing_sigma_db or 0.0, seed=spec.seed
        ),
        data_rate_mbps=spec.data_rate_mbps,
    )
    try:
        assign_link_rates(network, spec.rate_mode, rates_rng)
        meta: dict[str, object] = {
            "topology_generator": spec.topology.kind,
            "node_count": len(positions),
            "rate_mode": spec.rate_mode,
            "radio_profile": spec.radio_profile,
            "workload_generator": spec.workload.generator if spec.workload else None,
        }
        if spec.flows:
            handles = _add_flows(network, spec.flows)
        else:
            assert spec.workload is not None  # guarded above
            router = Router(network.node_ids, ett_link_weights(network))
            context = WorkloadContext(network, router, demands_rng, **spec.workload.params())
            generated = context.generate(spec.workload.generator)
            handles = _add_flows(network, generated)
            meta["transports"] = [flow.transport for flow in generated]
        meta["routes"] = [list(handle.path) for handle in handles]
        if spec.mobility is not None or spec.churn is not None:
            dynamics: dict[str, object] = {}
            if spec.mobility is not None:
                dynamics["epoch_s"] = spec.mobility.epoch_s
                dynamics["trajectory"] = build_mobility(
                    spec.mobility.model,
                    network.positions,
                    spec.mobility.params(),
                    seed=spec.seed,
                )
            if spec.churn is not None:
                schedule = spec.churn.to_dict()
                protect = schedule.pop("protect_endpoints")
                protected = frozenset(
                    node for h in handles if protect for node in (h.path[0], h.path[-1])
                )
                failable = len(set(network.node_ids) - protected)
                if spec.churn.num_events > failable:
                    raise SpecError(
                        f"ChurnSpec.num_events asks for {spec.churn.num_events} node failures, "
                        f"but only {failable} of its nodes may fail (protect_endpoints: {protect})"
                    )
                dynamics["churn"] = generate_churn_schedule(
                    network.node_ids, protected=protected, seed=spec.seed, **schedule
                )
            driver = DynamicsDriver(network, **dynamics).install()
            # The driver mutates this dict as epochs and churn events apply;
            # the runner copies scenario.meta AFTER the run, so the final
            # counters serialize into the experiment result.
            meta["dynamics"] = driver.meta
    except BaseException:
        network.close()
        raise
    return BuiltScenario(
        name="generated", spec=spec, network=network, flows=handles, meta=meta
    )
