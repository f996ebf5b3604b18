"""The composable generator layer: topology x workload x radio profiles
driven end-to-end through the spec layer.

Covers the acceptance bar of the generator refactor: every topology /
workload generator is runnable purely via :class:`ScenarioSpec` (no
bespoke builder code), generated specs round-trip and digest stably,
seeded workloads are deterministic, and generator-built sweeps return
byte-identical payloads on every execution backend.
"""

from __future__ import annotations

import json

import pytest

from repro.experiment.batch import BatchRunner, backend_names
from repro.experiment.registry import build_scenario
from repro.experiment.specs import (
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    ProbingSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    spec_digest,
)
from repro.net.routing import Router
from repro.sim import generators
from repro.sim.generators import (
    RADIO_PROFILES,
    TopologyGenerator,
    WorkloadContext,
    ett_link_weights,
    radio_profile_config,
    scenario_streams,
    workload_rng,
)

# ---------------------------------------------------------------------------
# The declarative grid this file exercises: every built-in topology and
# workload generator, all pure ScenarioSpec.
# ---------------------------------------------------------------------------
TOPOLOGIES = {
    "chain": TopologySpec(kind="chain", num_nodes=4, spacing_m=55.0),
    "grid": TopologySpec(kind="grid", rows=2, cols=3, spacing_m=55.0),
    "random_disk": TopologySpec(kind="random_disk", num_nodes=8, radius_m=140.0),
    "testbed": TopologySpec(kind="testbed"),
}
EXPECTED_NODES = {
    "chain": 4,
    "grid": 6,
    "random_disk": 8,
    "testbed": 18,
}
WORKLOADS = {
    "mixed_tcp_udp": WorkloadSpec(
        generator="mixed_tcp_udp", num_flows=3, max_hops=3, tcp_fraction=0.5
    ),
    "random_pairs": WorkloadSpec(generator="random_pairs", num_flows=2, max_hops=2),
}


def generated_scenario(
    topology: str = "grid", workload: str = "mixed_tcp_udp", seed: int = 3
) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="generated",
        seed=seed,
        topology=TOPOLOGIES[topology],
        workload=WORKLOADS[workload],
        rate_mode="11",
    )


def _generate(network, name, seed=0, **params):
    """The flows of workload ``name`` on ``network``, drawn as a generated
    scenario draws them: over an ETT router, from the generator's stream
    of ``seed``; ``params`` override the ``WorkloadSpec`` defaults."""
    router = Router(network.node_ids, ett_link_weights(network))
    _, rng = scenario_streams(name, seed)
    params = WorkloadSpec(generator=name, **params).params()
    return WorkloadContext(network, router, rng, **params).generate(name)


def _context(network, rng, num_flows, max_hops):
    """A workload context with every demand parameter given."""
    router = Router(network.node_ids, ett_link_weights(network))
    return WorkloadContext(
        network, router, rng, num_flows=num_flows, max_hops=max_hops,
        rate_bps=None, tcp_fraction=0.5, payload_bytes=1470, mss_bytes=1460,
    )


class TestTopologyGenerators:
    def test_registry_covers_the_advertised_generators(self):
        assert set(EXPECTED_NODES) == set(generators.TOPOLOGIES)

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_build_produces_expected_node_count(self, kind):
        positions = TOPOLOGIES[kind].build(seed=1)
        assert len(positions) == EXPECTED_NODES[kind]
        assert TOPOLOGIES[kind].node_count() == EXPECTED_NODES[kind]
        # ... and the serialized spec drives the generator to the same layout.
        assert TopologySpec.from_dict(TOPOLOGIES[kind].to_dict()).build(seed=1) == positions

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_build_is_deterministic_in_seed(self, kind):
        spec = TOPOLOGIES[kind]
        assert spec.build(seed=7) == spec.build(seed=7)

    def test_random_disk_varies_with_seed_and_respects_separation(self):
        spec = TOPOLOGIES["random_disk"]
        a, b = spec.build(seed=1), spec.build(seed=2)
        assert a != b
        points = list(a.values())
        for i, (x1, y1) in enumerate(points):
            for x2, y2 in points[i + 1 :]:
                assert (x1 - x2) ** 2 + (y1 - y2) ** 2 >= spec.min_separation_m**2

    def test_unknown_generator_lists_registered_names(self):
        listed = r"TopologySpec\.kind must be one of \['chain', 'grid', 'random_disk', 'testbed'\]"
        with pytest.raises(SpecError, match=listed):
            TopologySpec(kind="moebius_strip")
        with pytest.raises(SpecError, match=listed):
            TopologySpec.from_dict({"kind": "moebius_strip"})

    def test_one_declaration_makes_a_kind_buildable_sized_and_validated(self):
        """A table entry is the only place a kind is described: the
        spec validates against it, sizes by it and labels with it — no
        kind-switch to extend."""
        def _cross(t, seed):
            arms = {i + 1: (t.spacing_m * (i + 1), 0.0) for i in range(t.num_nodes)}
            return {0: (0.0, 0.0), **arms}

        generators.TOPOLOGIES["test-only-cross"] = TopologyGenerator(
            _cross,
            node_count=lambda t: t.num_nodes + 1,
            problem=lambda t: t.num_nodes < 2 and "a cross needs at least two arms",
            shape=lambda t: f"{t.num_nodes} arms",
        )
        try:
            spec = TopologySpec(kind="test-only-cross", num_nodes=4, spacing_m=50.0)
            assert len(spec.build()) == spec.node_count() == 5
            assert spec.describe() == "test-only-cross 4 arms"
            assert TopologySpec.from_dict(spec.to_dict()) == spec
            with pytest.raises(SpecError, match="at least two arms"):
                TopologySpec(kind="test-only-cross", num_nodes=1)
        finally:
            generators.TOPOLOGIES.pop("test-only-cross", None)


class TestWorkloadGenerators:
    @pytest.fixture(scope="class")
    def network(self):
        return build_scenario(generated_scenario("grid", "mixed_tcp_udp")).network

    def test_registry_covers_the_advertised_generators(self):
        assert set(WORKLOADS) == set(generators.WORKLOADS)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_spec_produces_identical_flows(self, name, network):
        workload = WORKLOADS[name]
        first = _generate(network, name, seed=5, **workload.params())
        second = _generate(network, name, seed=5, **workload.params())
        assert first == second

    def test_different_seeds_draw_from_different_streams(self, network):
        workload = WORKLOADS["mixed_tcp_udp"]
        seeds = {
            tuple(f.path for f in _generate(
                network, "mixed_tcp_udp", seed=seed, **workload.params()
            ))
            for seed in range(8)
        }
        assert len(seeds) > 1  # at least some seeds pick different demands

    def test_generator_streams_are_independent(self):
        a = workload_rng("mixed_tcp_udp", 3).uniform(size=4).tolist()
        b = workload_rng("random_pairs", 3).uniform(size=4).tolist()
        assert a != b

    def test_demands_are_one_uniform_draw_without_replacement(self, network):
        """``sample_demands`` is ``rng.choice(len(candidates), num_flows,
        replace=False)`` over the routable demands in node-id order, the
        chosen indices sorted: a copy of the stream draws the same."""
        _, rng = scenario_streams("mixed_tcp_udp", 4)
        _, copy = scenario_streams("mixed_tcp_udp", 4)
        context = _context(network, rng, num_flows=3, max_hops=2)
        candidates = context.routable_demands()
        chosen = sorted(int(i) for i in copy.choice(len(candidates), size=3, replace=False))
        assert context.sample_demands() == [candidates[i] for i in chosen]

    def test_fewer_demands_than_flows_takes_them_all(self, network):
        _, rng = scenario_streams("mixed_tcp_udp", 4)
        context = _context(network, rng, num_flows=1000, max_hops=1)
        assert context.sample_demands() == context.routable_demands()
        assert rng.bit_generator.state == scenario_streams("mixed_tcp_udp", 4)[1].bit_generator.state

    def test_paths_respect_max_hops(self, network):
        flows = _generate(network, "mixed_tcp_udp", seed=2, num_flows=4, max_hops=2)
        assert all(1 <= len(f.path) - 1 <= 2 for f in flows)

    def test_unknown_generator_lists_registered_names(self):
        listed = r"WorkloadSpec\.generator must be one of \['mixed_tcp_udp', 'random_pairs'\]"
        with pytest.raises(SpecError, match=listed):
            WorkloadSpec(generator="broadcast_storm")
        with pytest.raises(SpecError, match=listed):
            WorkloadSpec.from_dict({"generator": "broadcast_storm"})


class TestRadioProfiles:
    def test_hidden_terminal_profile_is_the_starvation_radio(self):
        built = build_scenario(ScenarioSpec(scenario="starvation", data_rate_mbps=1))
        assert built.network.radio == radio_profile_config("hidden_terminal", 1)
        built.close()

    def test_every_profile_builds(self):
        for name in sorted(RADIO_PROFILES):
            config = radio_profile_config(name, data_rate_mbps=11)
            assert config.data_rate.bps == 11e6

    def test_unknown_profile_lists_registered_names(self):
        with pytest.raises(SpecError, match=r"radio_profile must be one of \['hidden_terminal'\]"):
            ScenarioSpec(scenario="generated", radio_profile="quantum_entangled")


class TestSpecRoundTripAndDigest:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_generated_specs_round_trip(self, topology, workload):
        spec = ExperimentSpec(
            scenario=generated_scenario(topology, workload), label="rt"
        )
        payload = spec.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert ExperimentSpec.from_dict(json.loads(json.dumps(payload))) == spec

    def test_digest_is_stable_across_equal_constructions(self):
        a = ExperimentSpec(scenario=generated_scenario("grid", "random_pairs"))
        b = ExperimentSpec(scenario=generated_scenario("grid", "random_pairs"))
        assert a is not b and spec_digest(a) == spec_digest(b)
        assert spec_digest(a) == spec_digest(a.to_dict())

    def test_digest_distinguishes_generator_parameters(self):
        base = ExperimentSpec(scenario=generated_scenario("grid", "mixed_tcp_udp"))
        other_topo = ExperimentSpec(scenario=generated_scenario("chain", "mixed_tcp_udp"))
        other_load = ExperimentSpec(scenario=generated_scenario("grid", "random_pairs"))
        assert len({spec_digest(base), spec_digest(other_topo), spec_digest(other_load)}) == 3

    def test_flows_and_workload_are_mutually_exclusive(self):
        with pytest.raises(SpecError, match="not both"):
            ScenarioSpec(
                scenario="generated",
                flows=(FlowSpec("udp", (0, 1)),),
                workload=WorkloadSpec(),
            )


class TestGeneratedBuilder:
    def test_needs_a_topology(self):
        with pytest.raises(SpecError, match="topology"):
            build_scenario(ScenarioSpec(scenario="generated", workload=WorkloadSpec()))

    def test_needs_flows_or_workload(self):
        with pytest.raises(SpecError, match="flows or a"):
            build_scenario(
                ScenarioSpec(scenario="generated", topology=TOPOLOGIES["grid"])
            )

    def test_meta_records_the_composition(self):
        built = build_scenario(generated_scenario("chain", "random_pairs"))
        assert built.meta["topology_generator"] == "chain"
        assert built.meta["workload_generator"] == "random_pairs"
        assert built.meta["node_count"] == EXPECTED_NODES["chain"]
        assert built.meta["routes"] == [list(f.path) for f in built.flows]
        json.dumps(built.meta)  # results must serialize losslessly

    def test_explicit_flows_still_work(self):
        spec = ScenarioSpec(
            scenario="generated",
            topology=TOPOLOGIES["chain"],
            flows=(FlowSpec("udp", (0, 1, 2)),),
            rate_mode="11",
        )
        built = build_scenario(spec)
        assert [f.path for f in built.flows] == [[0, 1, 2]]

    def test_same_spec_builds_identical_scenarios(self):
        spec = generated_scenario("testbed", "mixed_tcp_udp", seed=9)
        a, b = build_scenario(spec), build_scenario(spec)
        assert a.network.positions == b.network.positions
        assert [f.path for f in a.flows] == [f.path for f in b.flows]
        assert [type(f).__name__ for f in a.flows] == [type(f).__name__ for f in b.flows]


# ---------------------------------------------------------------------------
# Cross-backend byte identity for generator-built sweeps: the same sweep
# dispatched through every backend must match the serial reference bit
# for bit.
# ---------------------------------------------------------------------------
def _fast_generated_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="generated",
            seed=seed,
            topology=TopologySpec(kind="chain", num_nodes=3, spacing_m=55.0),
            workload=WorkloadSpec(generator="mixed_tcp_udp", num_flows=2, max_hops=2),
            rate_mode="11",
        ),
        controller=ControllerSpec(enabled=False),
        probing=ProbingSpec(warmup_s=1.0),
        cycles=1,
        cycle_measure_s=1.0,
        settle_s=0.2,
        label="generated-backend-smoke",
    )


def _canonical(payloads: list[dict]) -> str:
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


class TestCrossBackendByteIdentity:
    @pytest.fixture(scope="class")
    def sweep_and_reference(self):
        sweep = [_fast_generated_spec(seed) for seed in range(2)]
        reference = BatchRunner(sweep, backend="serial").run()
        return sweep, _canonical(reference.to_dicts(include_runtime=False))

    @pytest.mark.parametrize("backend", backend_names())
    def test_generated_sweep_matches_serial_reference(
        self, backend, sweep_and_reference
    ):
        sweep, reference = sweep_and_reference
        batch = BatchRunner(sweep, backend=backend, max_workers=2).run()
        assert batch.backend == backend
        assert batch.planner.executed == 2
        assert _canonical(batch.to_dicts(include_runtime=False)) == reference
