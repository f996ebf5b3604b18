"""Named scenario registry.

A *scenario builder* materializes a :class:`ScenarioSpec` into a live
:class:`MeshNetwork` plus flow handles.  Builders register under a name
with :func:`register_scenario`, which makes every scenario discoverable
(``scenario_names()``), describable (``scenario_description()``) and
runnable by name through :class:`repro.experiment.runner.Experiment`.

The built-ins are thin presets over the composable generator layer of
:mod:`repro.sim.generators` (topology generators x workload generators
x radio profiles):

* ``generated`` — the fully declarative composition: any registered
  topology generator (grid, ring, random-disk, binary-tree,
  parking-lot, ...), flows from a registered workload generator (or
  explicit :class:`FlowSpec`\\ s), link rates assigned per ``rate_mode``,
  and an optional named radio profile;
* ``chain`` — an N-node chain with explicit flows (defaults to one UDP
  flow over the whole chain);
* ``testbed`` — the synthetic 18-node testbed with explicit flows;
* ``random_multiflow`` — ETT-routed random multi-flow configurations of
  Sections 4.5 / 6.3 (kept on its legacy single-RNG draw discipline so
  historical results replay bit-identically);
* ``starvation`` — the two-flow upstream TCP gateway scenario of
  Figure 13: a three-node chain under the ``hidden_terminal`` radio
  profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

from repro.engine import named_rng
from repro.experiment.specs import FlowSpec, ScenarioSpec, SpecError, TopologySpec
from repro.net.routing import first_use_links
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig
from repro.registry import Registry
from repro.sim.dynamics import (
    DynamicsDriver,
    apply_rate_adaptation,
    build_mobility,
    generate_churn_schedule,
)
from repro.sim.generators import (
    GeneratedFlow,
    Positions,
    assign_link_rates,
    generate_workload,
    radio_profile_config,
    radio_profile_is_adaptive,
)
from repro.sim.network import MeshNetwork, TcpFlowHandle, UdpFlowHandle
from repro.sim.scenarios import (
    build_testbed_network,
    random_multiflow_scenario,
    starvation_scenario,
    traffic_seed,
)

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


def _mesh(
    spec: ScenarioSpec, positions: Positions, radio: RadioConfig | None
) -> MeshNetwork:
    """The network of a spec that places its own nodes: log-distance
    propagation with the spec's shadowing (none by default) drawn from
    ``seed``, traffic seeded by ``run_seed``."""
    return MeshNetwork(
        positions,
        seed=traffic_seed(spec.seed, spec.run_seed),
        radio=radio,
        propagation=LogDistancePathLoss(
            shadowing_sigma_db=spec.shadowing_sigma_db or 0.0, seed=spec.seed
        ),
        data_rate_mbps=spec.data_rate_mbps,
    )


def _reject_unread(spec: ScenarioSpec, *names: str) -> None:
    """A field that changes the digest must change the build: refuse a
    field this scenario's builder never reads rather than cache two
    entries for one experiment."""
    for name in names:
        if getattr(spec, name) is not None:
            raise SpecError(
                f"ScenarioSpec.{name} is not read by the {spec.scenario!r} "
                f"scenario (the 'generated' scenario composes it); got "
                f"{getattr(spec, name)!r}"
            )


@register_scenario(
    "generated",
    description="declarative topology x workload x radio-profile composition",
)
def _build_generated(spec: ScenarioSpec) -> BuiltScenario:
    """The open half of the scenario space: every axis is a registered
    generator driven purely by the spec, so new interference structures
    need parameters, not builder code.

    Construction order (all randomness from named, seed-derived RNG
    streams, so the scenario is a pure function of the spec):

    1. node positions via the topology generator (``spec.topology``);
    2. radio from ``spec.radio``, else the named ``spec.radio_profile``
       at the scenario's data rate, else the default radio;
    3. per-link modulations per ``spec.rate_mode`` (the ``mixed`` draw
       uses the ``generated.link_rates`` stream) — or, under an adaptive
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
    network = _mesh(spec, positions, radio)
    adaptive = spec.radio_profile is not None and radio_profile_is_adaptive(
        spec.radio_profile
    )
    if adaptive:
        # SNR-thresholded initial rates; the DynamicsDriver re-applies
        # them after every position epoch.  RNG-free, so this never
        # perturbs the ``generated.link_rates`` stream of other specs.
        apply_rate_adaptation(network)
    else:
        assign_link_rates(
            network, spec.rate_mode, named_rng(spec.seed, "generated.link_rates")
        )
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
        generated = generate_workload(
            network,
            spec.workload.generator,
            seed=spec.seed,
            **spec.workload.params(),
        )
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
    return BuiltScenario(
        name="generated", spec=spec, network=network, flows=handles, meta=meta
    )


@register_scenario(
    "chain", description="N-node chain with explicit flows (deterministic propagation)"
)
def _build_chain(spec: ScenarioSpec) -> BuiltScenario:
    _reject_unread(spec, "radio_profile", "workload")
    positions = (spec.topology or TopologySpec()).build(seed=spec.seed)
    network = _mesh(spec, positions, spec.radio.build() if spec.radio else None)
    flows = spec.flows or (
        FlowSpec(transport=spec.transport, path=tuple(sorted(positions))),
    )
    return BuiltScenario(
        name="chain", spec=spec, network=network, flows=_add_flows(network, flows)
    )


@register_scenario(
    "testbed", description="the synthetic 18-node testbed with explicit flows"
)
def _build_testbed(spec: ScenarioSpec) -> BuiltScenario:
    _reject_unread(spec, "radio_profile", "workload")
    if not spec.flows:
        raise SpecError("the 'testbed' scenario needs explicit FlowSpecs")
    sigma = 6.0 if spec.shadowing_sigma_db is None else spec.shadowing_sigma_db
    network = build_testbed_network(
        seed=spec.seed,
        data_rate_mbps=spec.data_rate_mbps,
        shadowing_sigma_db=sigma,
        radio=spec.radio.build() if spec.radio else None,
        run_seed=spec.run_seed,
    )
    return BuiltScenario(
        name="testbed", spec=spec, network=network, flows=_add_flows(network, spec.flows)
    )


@register_scenario(
    "random_multiflow",
    description="ETT-routed random multi-flow testbed configuration (Sections 4.5/6.3)",
)
def _build_random_multiflow(spec: ScenarioSpec) -> BuiltScenario:
    _reject_unread(spec, "radio_profile", "workload")
    scenario = random_multiflow_scenario(
        seed=spec.seed,
        num_flows=spec.num_flows,
        max_hops=spec.max_hops,
        rate_mode=spec.rate_mode,  # type: ignore[arg-type]
        transport=spec.transport,  # type: ignore[arg-type]
        run_seed=spec.run_seed,
    )
    return BuiltScenario(
        name="random_multiflow",
        spec=spec,
        network=scenario.network,
        flows=list(scenario.flows),
        meta={
            "scenario_label": scenario.name,
            "routes": [list(route.path) for route in scenario.routes],
        },
    )


@register_scenario(
    "starvation",
    description="two-flow upstream TCP starvation at a gateway (Figure 13)",
)
def _build_starvation(spec: ScenarioSpec) -> BuiltScenario:
    _reject_unread(spec, "radio_profile", "workload")
    scenario = starvation_scenario(
        seed=spec.seed, data_rate_mbps=spec.data_rate_mbps, run_seed=spec.run_seed
    )
    return BuiltScenario(
        name="starvation",
        spec=spec,
        network=scenario.network,
        flows=[scenario.two_hop, scenario.one_hop],
        meta={"two_hop": scenario.two_hop.flow_id, "one_hop": scenario.one_hop.flow_id},
    )
