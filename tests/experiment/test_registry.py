"""Scenario registry: discovery, building, custom registration."""

from __future__ import annotations

import pytest

from repro.experiment.registry import (
    BuiltScenario,
    build_scenario,
    register_scenario,
    scenario_names,
)
from repro.experiment.specs import (
    ChurnSpec,
    FlowSpec,
    MobilitySpec,
    RadioSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim.network import MeshNetwork, TcpFlowHandle, UdpFlowHandle

BUILTIN_SCENARIOS = ["chain", "generated", "random_multiflow", "starvation", "testbed"]

#: (scenario, field, value): a field off its default that the name does
#: not read, so it would change the digest and not the build.
UNREAD = [
    *[
        (scenario, field, value)
        for scenario in ("chain", "testbed", "random_multiflow", "starvation")
        for field, value in (
            ("radio_profile", "hidden_terminal"),
            ("radio_profile", "low_power"),
            ("workload", WorkloadSpec(generator="tcp_bulk")),
            ("mobility", MobilitySpec()),
            ("churn", ChurnSpec()),
        )
    ],
    ("random_multiflow", "data_rate_mbps", 1),
    ("random_multiflow", "shadowing_sigma_db", 4.0),
    ("random_multiflow", "radio", RadioSpec()),
    ("random_multiflow", "topology", TopologySpec()),
    ("random_multiflow", "flows", (FlowSpec("udp", (0, 1)),)),
    ("testbed", "topology", TopologySpec(kind="testbed")),
    ("testbed", "rate_mode", "11"),
    ("testbed", "transport", "tcp"),
    ("chain", "rate_mode", "11"),
    ("chain", "num_flows", 2),
    ("starvation", "topology", TopologySpec()),
    ("starvation", "radio", RadioSpec()),
    ("starvation", "flows", (FlowSpec("tcp", (0, 1)),)),
    ("starvation", "shadowing_sigma_db", 0.0),
    ("starvation", "rate_mode", "11"),
    ("starvation", "num_flows", 2),
    ("starvation", "max_hops", 2),
    ("starvation", "transport", "tcp"),
    ("generated", "num_flows", 2),
    ("generated", "max_hops", 2),
    ("generated", "transport", "tcp"),
]


def _plain(value):
    """A field value in its payload form."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


class TestDiscovery:
    def test_all_builtins_registered(self):
        assert set(BUILTIN_SCENARIOS) <= set(scenario_names())

    def test_unknown_scenario_raises_spec_error(self):
        with pytest.raises(SpecError, match="unknown scenario"):
            build_scenario(ScenarioSpec(scenario="no-such-scenario"))

    def test_unknown_scenario_error_lists_registered_names(self):
        """A bare lookup failure is useless at a REPL; the error must
        name every registered scenario (SpecError is a ValueError, so
        generic `except ValueError` handling keeps working)."""
        with pytest.raises(ValueError) as excinfo:
            build_scenario(ScenarioSpec(scenario="no-such-scenario"))
        message = str(excinfo.value)
        for name in scenario_names():
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("chain")(lambda spec: None)


class TestBuiltinBuilders:
    def test_chain_default_flow_spans_the_chain(self):
        built = build_scenario(
            ScenarioSpec(scenario="chain", topology=TopologySpec(kind="chain", num_nodes=4))
        )
        assert len(built.network.nodes) == 4
        assert len(built.flows) == 1
        assert built.flows[0].path == [0, 1, 2, 3]

    def test_chain_explicit_flows(self):
        built = build_scenario(
            ScenarioSpec(
                scenario="chain",
                flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("tcp", (1, 2))),
            )
        )
        assert isinstance(built.flows[0], UdpFlowHandle)
        assert isinstance(built.flows[1], TcpFlowHandle)
        assert built.links == [(0, 1), (1, 2)]

    def test_testbed_requires_explicit_flows(self):
        with pytest.raises(SpecError, match="explicit FlowSpecs"):
            build_scenario(ScenarioSpec(scenario="testbed"))

    def test_testbed_builds_18_nodes(self):
        built = build_scenario(
            ScenarioSpec(scenario="testbed", flows=(FlowSpec("udp", (0, 1)),))
        )
        assert len(built.network.nodes) == 18

    def test_random_multiflow_builds_requested_flows(self):
        built = build_scenario(
            ScenarioSpec(scenario="random_multiflow", seed=7, num_flows=3, rate_mode="11")
        )
        assert len(built.flows) == 3
        assert "scenario_label" in built.meta

    def test_starvation_flow_geometry(self):
        built = build_scenario(ScenarioSpec(scenario="starvation", data_rate_mbps=1))
        assert [flow.path for flow in built.flows] == [[0, 1, 2], [1, 2]]
        assert built.meta["two_hop"] == built.flows[0].flow_id

    def test_starvation_honors_run_seed(self):
        spec = ScenarioSpec(scenario="starvation", seed=0, run_seed=77, data_rate_mbps=1)
        built = build_scenario(spec)
        assert built.network.sim.seed == 77
        # Topology stays pinned to the fixed gateway chain regardless.
        base = build_scenario(ScenarioSpec(scenario="starvation", data_rate_mbps=1))
        assert built.network.positions == base.network.positions

    @pytest.mark.parametrize(
        "scenario,field,value", UNREAD, ids=[f"{s}.{f}" for s, f, _ in UNREAD]
    )
    def test_builtins_refuse_digest_fields_they_do_not_read(self, scenario, field, value):
        """A field that changes the digest must change the build (a
        ``random_multiflow`` spec at ``data_rate_mbps=1`` ran at 11 Mb/s
        under a digest of its own): a built-in name refuses the fields it
        does not read when the spec is made, so a stored payload carrying
        one cannot be read back and no cache lookup can serve it."""
        refused = rf"ScenarioSpec\.{field} is not read by the {scenario!r} scenario"
        with pytest.raises(SpecError, match=refused):
            ScenarioSpec(scenario=scenario, **{field: value})
        with pytest.raises(SpecError, match=refused):
            ScenarioSpec.from_dict({"scenario": scenario, field: _plain(value)})

    def test_names_registered_elsewhere_are_not_checked(self):
        ScenarioSpec(scenario="not-a-built-in", transport="tcp", mobility=MobilitySpec())

    def test_meta_is_json_serializable(self):
        import json

        for spec in (
            ScenarioSpec(scenario="random_multiflow", seed=7, num_flows=2),
            ScenarioSpec(scenario="starvation", data_rate_mbps=1),
        ):
            json.dumps(build_scenario(spec).meta)

    def test_same_spec_builds_identical_networks(self):
        spec = ScenarioSpec(scenario="random_multiflow", seed=11, num_flows=2)
        a, b = build_scenario(spec), build_scenario(spec)
        assert [f.path for f in a.flows] == [f.path for f in b.flows]
        assert a.network.positions == b.network.positions


class TestFailedBuild:
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(
                scenario="generated",
                topology=TopologySpec(kind="chain", num_nodes=3),
                flows=(FlowSpec("udp", (0, 1, 9)),),
            ),
            ScenarioSpec(
                scenario="generated",
                topology=TopologySpec(kind="ring", num_nodes=4, radius_m=2000.0),
                workload=WorkloadSpec(),
            ),
            ScenarioSpec(scenario="random_multiflow", num_flows=400),
        ],
        ids=["flow-over-a-missing-node", "no-routable-demand", "too-many-random-pairs"],
    )
    def test_a_build_that_raises_closes_its_network(self, spec, monkeypatch):
        """Whatever raises once the network exists closes it before the
        error propagates, instead of leaving the cyclic graph to the
        collector."""
        closed = []
        close = MeshNetwork.close

        def recording_close(network):
            closed.append(network)
            close(network)

        monkeypatch.setattr(MeshNetwork, "close", recording_close)
        with pytest.raises((KeyError, RuntimeError)):
            build_scenario(spec)
        assert len(closed) == 1 and closed[0]._closed


class TestCustomRegistration:
    def test_registered_builder_is_discoverable_and_buildable(self):
        name = "test-only-two-node"

        @register_scenario(name)
        def _build(spec: ScenarioSpec) -> BuiltScenario:
            from repro.sim.network import MeshNetwork
            from repro.sim.topology import no_shadowing_propagation

            network = MeshNetwork(
                {0: (0.0, 0.0), 1: (50.0, 0.0)},
                seed=spec.seed,
                propagation=no_shadowing_propagation(),
            )
            return BuiltScenario(
                name=name,
                spec=spec,
                network=network,
                flows=[network.add_udp_flow([0, 1])],
            )

        try:
            assert name in scenario_names()
            built = build_scenario(ScenarioSpec(scenario=name, seed=2))
            assert built.flows[0].path == [0, 1]
        finally:
            from repro.experiment import registry

            registry._SCENARIOS.pop(name, None)

    def test_docs_extension_recipe_runs_as_written(self):
        """docs/experiment-api.md promises one registration per axis;
        execute its code blocks verbatim and run what they declare."""
        import re
        from dataclasses import replace
        from pathlib import Path

        from repro.experiment import registry
        from repro.experiment.runner import run_experiment
        from repro.experiment.specs import ControllerSpec, ExperimentSpec
        from repro.monitors.base import MONITORS
        from repro.sim.dynamics import MOBILITY_MODELS
        from repro.sim.generators import TOPOLOGIES, WORKLOADS

        doc = Path(__file__).resolve().parents[2] / "docs" / "experiment-api.md"
        text = doc.read_text(encoding="utf-8")
        section = text[text.index("## Extending the scenario space"):]
        section = section[: section.index("\n## ", 1)]
        namespace: dict = {}
        registered = {
            "star": TOPOLOGIES,
            "to_hub": WORKLOADS,
            "jitter": MOBILITY_MODELS,
            "hops": MONITORS,
            "two_chains": registry._SCENARIOS,
        }
        try:
            for block in re.findall(r"```python\n(.*?)```", section, re.S):
                exec(block, namespace)
            assert all(name in axis for name, axis in registered.items())
            spec = replace(
                namespace["spec"],
                controller=ControllerSpec(enabled=False),
                cycle_measure_s=1.0,
                settle_s=0.2,
            )
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec
            result = run_experiment(spec, cache=False)
            assert result.meta["topology_generator"] == "star"
            assert result.meta["dynamics"]["mobility_model"] == "jitter"
            assert {series.values[0] for series in result.monitors["hops"]} <= {1.0, 2.0, 3.0}
            assert build_scenario(ScenarioSpec(scenario="two_chains")).links == [
                (0, 1),
                (2, 3),
            ]
        finally:
            for name, axis in registered.items():
                axis.pop(name, None)
