"""Scenario building: the built-in names, what each builds, and the
names a spec refuses."""

from __future__ import annotations

import re

import pytest

from repro.experiment.registry import build_scenario
from repro.experiment.specs import (
    SCENARIO_PRESETS,
    ChurnSpec,
    ExperimentSpec,
    FlowSpec,
    MobilitySpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim.network import MeshNetwork
from repro.transport.tcp import TcpSource
from repro.transport.udp import UdpSource

BUILTIN_SCENARIOS = ["chain", "generated", "random_multiflow", "starvation"]

#: (scenario, field, value): a field off its default that the name does
#: not read, so it would change the digest and not the build.
UNREAD = [
    *[
        (scenario, field, value)
        for scenario in ("chain", "random_multiflow", "starvation")
        for field, value in (
            ("radio_profile", "hidden_terminal"),
            ("workload", WorkloadSpec()),
            ("mobility", MobilitySpec()),
            ("churn", ChurnSpec()),
        )
    ],
    ("random_multiflow", "data_rate_mbps", 1),
    ("random_multiflow", "shadowing_sigma_db", 4.0),
    ("random_multiflow", "topology", TopologySpec()),
    ("random_multiflow", "flows", (FlowSpec("udp", (0, 1)),)),
    ("chain", "rate_mode", "11"),
    ("chain", "num_flows", 2),
    ("chain", "max_hops", 2),
    ("starvation", "topology", TopologySpec()),
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
        assert sorted({"generated", *SCENARIO_PRESETS}) == BUILTIN_SCENARIOS

    def test_unknown_scenario_raises_spec_error(self):
        with pytest.raises(SpecError, match="ScenarioSpec.scenario must be one of"):
            ScenarioSpec(scenario="no-such-scenario")

    def test_unknown_scenario_error_lists_registered_names(self):
        """A bare lookup failure is useless at a REPL; the error must
        name every built-in scenario (SpecError is a ValueError, so
        generic `except ValueError` handling keeps working)."""
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec(scenario="no-such-scenario")
        assert str(BUILTIN_SCENARIOS) in str(excinfo.value)


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
        assert isinstance(built.flows[0].source, UdpSource)
        assert isinstance(built.flows[1].source, TcpSource)
        assert built.links == [(0, 1), (1, 2)]

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

    def test_an_unknown_name_is_refused_where_the_spec_is_made(self):
        """A spec naming no built-in scenario never gets a digest: it is
        refused when made, and when read back from a payload, listing the
        four names, instead of inside whichever worker would build it."""
        listed = r"ScenarioSpec\.scenario must be one of " + re.escape(str(BUILTIN_SCENARIOS))
        with pytest.raises(SpecError, match=listed):
            ScenarioSpec(scenario="no-such-scenario")
        with pytest.raises(SpecError, match=listed):
            ExperimentSpec.from_dict({"scenario": {"scenario": "no-such-scenario"}})

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
                topology=TopologySpec(kind="random_disk", num_nodes=4, radius_m=2000.0),
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

    @pytest.mark.parametrize(
        "protect, failable", [(True, 1), (False, 3)], ids=["endpoints-protected", "any-node"]
    )
    def test_churn_refuses_more_failures_than_failable_nodes(self, protect, failable):
        """A schedule is never cut short without a word: asking for more
        failures than there are nodes that may fail names both counts."""
        spec = ScenarioSpec(
            scenario="generated",
            topology=TopologySpec(kind="chain", num_nodes=3),
            flows=(FlowSpec("udp", (0, 1, 2)),),
            churn=ChurnSpec(num_events=failable + 1, protect_endpoints=protect),
        )
        with pytest.raises(
            SpecError, match=f"asks for {failable + 1} node failures, but only {failable} "
        ):
            build_scenario(spec)
