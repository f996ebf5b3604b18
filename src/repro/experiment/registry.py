"""Named scenario registry.

A *scenario builder* materializes a :class:`ScenarioSpec` into a live
:class:`MeshNetwork` plus flow handles.  Builders register under a name
with :func:`register_scenario`, which makes every scenario discoverable
(``scenario_names()``), describable (``scenario_description()``) and
runnable by name through :class:`repro.experiment.runner.Experiment`.

One built-in constructs networks: ``generated``, the declarative
composition of the generator layer of :mod:`repro.sim.generators` — any
registered topology generator, flows from a registered workload
generator (or explicit :class:`FlowSpec`\\ s), link rates per
``rate_mode`` and an optional radio or named radio profile.  ``chain``,
``testbed``, ``random_multiflow`` and ``starvation`` are presets of it
(:data:`repro.experiment.specs.SCENARIO_PRESETS`): each turns the spec
it is given into a ``generated`` spec, which the same builder
materializes, and reports the ``meta`` keys that name always has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

from repro.experiment.specs import SCENARIO_PRESETS, FlowSpec, ScenarioSpec, SpecError
from repro.net.routing import Router, first_use_links
from repro.phy.propagation import LogDistancePathLoss
from repro.registry import Registry
from repro.sim.dynamics import (
    DynamicsDriver,
    apply_rate_adaptation,
    build_mobility,
    generate_churn_schedule,
)
from repro.sim.generators import (
    GeneratedFlow,
    WorkloadContext,
    assign_link_rates,
    ett_link_weights,
    radio_profile_config,
    radio_profile_is_adaptive,
    scenario_streams,
)
from repro.sim.network import MeshNetwork, TcpFlowHandle, UdpFlowHandle

FlowHandle = UdpFlowHandle | TcpFlowHandle


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


class ScenarioBuilder(Protocol):
    def __call__(self, spec: ScenarioSpec) -> BuiltScenario: ...


_SCENARIOS: Registry[ScenarioBuilder] = Registry("scenario", error=SpecError)

#: ``@register_scenario(name, description=...)`` registers
#: ``builder(spec: ScenarioSpec) -> BuiltScenario``.
register_scenario = _SCENARIOS.register
scenario_names = _SCENARIOS.names
scenario_description = _SCENARIOS.description


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Materialize ``spec`` via its registered builder."""
    return _SCENARIOS.lookup(spec.scenario)(spec)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------
def _add_flows(
    network: MeshNetwork, flows: "Iterable[FlowSpec | GeneratedFlow]"
) -> list[FlowHandle]:
    """Attach declarative flows — explicit :class:`FlowSpec`\\ s or a
    workload generator's :class:`GeneratedFlow`\\ s, which share the same
    field vocabulary — to the live network, in order."""
    handles: list[FlowHandle] = []
    for flow in flows:
        if flow.transport == "udp":
            handles.append(
                network.add_udp_flow(
                    list(flow.path),
                    payload_bytes=flow.payload_bytes,
                    rate_bps=flow.rate_bps,
                )
            )
        else:
            handles.append(
                network.add_tcp_flow(list(flow.path), mss_bytes=flow.mss_bytes)
            )
    return handles


@register_scenario(
    "generated",
    description="declarative topology x workload x radio-profile composition",
)
def _build_generated(spec: ScenarioSpec) -> BuiltScenario:
    """The one builder that constructs a network: every axis is a
    registered generator driven purely by the spec, so new interference
    structures need parameters, not builder code.  Whatever raises once
    the network exists (a workload with no routable demands, a flow over
    a missing node) closes it first.

    Construction order (all randomness from seed-derived streams, so the
    scenario is a pure function of the spec):

    1. node positions via the topology generator (``spec.topology``);
    2. radio from ``spec.radio``, else the named ``spec.radio_profile``
       at the scenario's data rate, else the default radio; the network
       shadows at the spec's σ (none by default) drawn from ``seed``, and
       ``run_seed`` (defaulting to ``seed``) seeds only its traffic;
    3. per-link modulations per ``spec.rate_mode`` (the ``mixed`` draw
       uses the stream :func:`repro.sim.generators.scenario_streams`
       picks) — or, under an adaptive
       radio profile, SNR-thresholded rates via
       :func:`repro.sim.dynamics.apply_rate_adaptation`;
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
            "registered topology generator"
        )
    if not spec.flows and spec.workload is None:
        raise SpecError(
            "the 'generated' scenario needs explicit spec.flows or a "
            "spec.workload generator"
        )
    positions = spec.topology.build(seed=spec.seed)
    if spec.radio is not None:
        radio = spec.radio.build()
    elif spec.radio_profile is not None:
        radio = radio_profile_config(
            spec.radio_profile, data_rate_mbps=spec.data_rate_mbps
        )
    else:
        radio = None
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
        adaptive = spec.radio_profile is not None and radio_profile_is_adaptive(
            spec.radio_profile
        )
        if adaptive:
            # SNR-thresholded initial rates; the DynamicsDriver re-applies
            # them after every position epoch.  RNG-free, so this never
            # perturbs the link-rate stream of other specs.
            apply_rate_adaptation(network)
        else:
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
        if spec.mobility is not None or spec.churn is not None or adaptive:
            dynamics: dict[str, object] = {"rate_adaptation": adaptive}
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
                endpoints = frozenset(
                    node for handle in handles for node in (handle.path[0], handle.path[-1])
                )
                dynamics["churn"] = generate_churn_schedule(
                    network.node_ids,
                    protected=endpoints if schedule.pop("protect_endpoints") else frozenset(),
                    seed=spec.seed,
                    **schedule,
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


def _build_preset(spec: ScenarioSpec) -> BuiltScenario:
    """A preset name: the ``generated`` spec it stands for, built, under
    the preset's own name, spec and ``meta``."""
    preset = SCENARIO_PRESETS[spec.scenario]
    built = _build_generated(preset.generated(spec))
    return BuiltScenario(
        name=spec.scenario,
        spec=spec,
        network=built.network,
        flows=built.flows,
        meta=preset.meta(spec, built.flows),
    )


for _name, _preset in SCENARIO_PRESETS.items():
    register_scenario(_name, description=_preset.description)(_build_preset)
del _name, _preset
