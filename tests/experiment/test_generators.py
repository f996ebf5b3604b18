"""The composable generator layer: topology x workload x radio profiles
driven end-to-end through the spec layer.

Covers the acceptance bar of the generator refactor: every topology /
workload generator is runnable purely via :class:`ScenarioSpec` (no
bespoke builder code), generated specs round-trip and digest stably,
seeded workloads are deterministic, and generator-built sweeps return
byte-identical payloads on whichever execution backend the environment
selects (the CI backend matrix drives this file under
``REPRO_BATCH_BACKEND=serial|process|work_queue``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiment import (
    BatchRunner,
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    ProbingSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
    spec_digest,
)
from repro.sim.generators import TOPOLOGIES as TOPOLOGY_REGISTRY
from repro.sim.generators import (
    build_topology,
    generate_workload,
    radio_profile_config,
    radio_profile_names,
    radio_profile_params,
    register_topology,
    topology_names,
    workload_names,
    workload_rng,
)

# ---------------------------------------------------------------------------
# The declarative grid this file exercises: five-plus topology generators
# and three-plus workload generators, all pure ScenarioSpec.
# ---------------------------------------------------------------------------
TOPOLOGIES = {
    "chain": TopologySpec(kind="chain", num_nodes=4, spacing_m=55.0),
    "grid": TopologySpec(kind="grid", rows=2, cols=3, spacing_m=55.0),
    "ring": TopologySpec(kind="ring", num_nodes=6, radius_m=90.0),
    "random_disk": TopologySpec(kind="random_disk", num_nodes=8, radius_m=140.0),
    "binary_tree": TopologySpec(kind="binary_tree", depth=3, spacing_m=50.0),
    "parking_lot": TopologySpec(kind="parking_lot", num_nodes=3, spacing_m=55.0),
}
EXPECTED_NODES = {
    "chain": 4,
    "grid": 6,
    "ring": 6,
    "random_disk": 8,
    "binary_tree": 7,
    "parking_lot": 5,
}
WORKLOADS = {
    "saturated_udp": WorkloadSpec(generator="saturated_udp", num_flows=3, max_hops=3),
    "tcp_bulk": WorkloadSpec(generator="tcp_bulk", num_flows=2, max_hops=2),
    "mixed_tcp_udp": WorkloadSpec(
        generator="mixed_tcp_udp", num_flows=3, max_hops=3, tcp_fraction=0.5
    ),
    "gravity": WorkloadSpec(generator="gravity", num_flows=3, rate_bps=150e3),
}


def generated_scenario(
    topology: str = "grid", workload: str = "saturated_udp", seed: int = 3
) -> ScenarioSpec:
    return ScenarioSpec(
        scenario="generated",
        seed=seed,
        topology=TOPOLOGIES[topology],
        workload=WORKLOADS[workload],
        rate_mode="11",
    )


class TestTopologyGenerators:
    def test_registry_covers_the_advertised_generators(self):
        assert set(EXPECTED_NODES) <= set(topology_names())

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_build_produces_expected_node_count(self, kind):
        positions = TOPOLOGIES[kind].build(seed=1)
        assert len(positions) == EXPECTED_NODES[kind]
        assert TOPOLOGIES[kind].node_count() == EXPECTED_NODES[kind]
        # ... and the serialized spec drives the generator to the same layout.
        assert build_topology(kind, TOPOLOGIES[kind].to_dict(), seed=1) == positions

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

    def test_line_is_an_alias_of_chain(self):
        line = TopologySpec(kind="line", num_nodes=4, spacing_m=55.0)
        assert line.build() == TOPOLOGIES["chain"].build()

    def test_unknown_generator_lists_registered_names(self):
        with pytest.raises(KeyError, match="registered:.*grid"):
            build_topology("moebius_strip", {})
        with pytest.raises(SpecError, match="registered generator"):
            TopologySpec(kind="moebius_strip")

    def test_one_declaration_makes_a_kind_buildable_sized_and_validated(self):
        """A registration is the only place a kind is described: the
        spec validates against it, sizes by it and labels with it, and
        the planner sizes payloads by it — no kind-switch to extend."""
        from repro.experiment.planner import _node_count

        @register_topology(
            "test-only-cross",
            description="a centre node plus num_nodes arms",
            node_count=lambda t: t.num_nodes + 1,
            problem=lambda t: t.num_nodes < 2 and "a cross needs at least two arms",
            shape=lambda t: f"{t.num_nodes} arms",
        )
        def _cross(t, seed):
            arms = {i + 1: (t.spacing_m * (i + 1), 0.0) for i in range(t.num_nodes)}
            return {0: (0.0, 0.0), **arms}

        try:
            spec = TopologySpec(kind="test-only-cross", num_nodes=4, spacing_m=50.0)
            assert len(spec.build()) == spec.node_count() == 5
            assert spec.describe() == "test-only-cross 4 arms"
            assert TopologySpec.from_dict(spec.to_dict()) == spec
            assert _node_count({"topology": spec.to_dict()}) == 5
            with pytest.raises(SpecError, match="at least two arms"):
                TopologySpec(kind="test-only-cross", num_nodes=1)
        finally:
            TOPOLOGY_REGISTRY.pop("test-only-cross", None)
        # Once unregistered the planner falls back instead of failing the plan.
        assert _node_count({"topology": {"kind": "test-only-cross"}}) == 18


class TestWorkloadGenerators:
    @pytest.fixture(scope="class")
    def network(self):
        return build_scenario(generated_scenario("grid", "saturated_udp")).network

    def test_registry_covers_the_advertised_generators(self):
        assert {"saturated_udp", "tcp_bulk", "mixed_tcp_udp", "gravity"} <= set(
            workload_names()
        )

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_spec_produces_identical_flows(self, name, network):
        workload = WORKLOADS[name]
        first = generate_workload(network, name, seed=5, **workload.params())
        second = generate_workload(network, name, seed=5, **workload.params())
        assert first == second

    def test_different_seeds_draw_from_different_streams(self, network):
        workload = WORKLOADS["saturated_udp"]
        seeds = {
            tuple(f.path for f in generate_workload(
                network, "saturated_udp", seed=seed, **workload.params()
            ))
            for seed in range(8)
        }
        assert len(seeds) > 1  # at least some seeds pick different demands

    def test_generator_streams_are_independent(self):
        a = workload_rng("saturated_udp", 3).uniform(size=4).tolist()
        b = workload_rng("gravity", 3).uniform(size=4).tolist()
        assert a != b

    def test_paths_respect_max_hops(self, network):
        flows = generate_workload(network, "saturated_udp", seed=2, num_flows=4, max_hops=2)
        assert all(1 <= len(f.path) - 1 <= 2 for f in flows)

    def test_gravity_splits_the_rate_budget(self, network):
        flows = generate_workload(
            network, "gravity", seed=2, num_flows=3, rate_bps=100e3
        )
        total = sum(f.rate_bps for f in flows)
        assert total == pytest.approx(100e3 * 3)
        assert len({f.rate_bps for f in flows}) > 1  # weighted, not uniform

    def test_unknown_generator_lists_registered_names(self, network):
        with pytest.raises(KeyError, match="registered:.*gravity"):
            generate_workload(network, "broadcast_storm", seed=0)
        with pytest.raises(SpecError, match="registered name"):
            WorkloadSpec(generator="broadcast_storm")


class TestRadioProfiles:
    def test_hidden_terminal_profile_is_the_starvation_radio(self):
        built = build_scenario(ScenarioSpec(scenario="starvation", data_rate_mbps=1))
        assert built.network.radio == radio_profile_config("hidden_terminal", 1)
        built.close()

    def test_every_profile_builds(self):
        for name in radio_profile_names():
            config = radio_profile_config(name, data_rate_mbps=11)
            assert config.data_rate.bps == 11e6

    def test_unknown_profile_lists_registered_names(self):
        with pytest.raises(KeyError, match="registered:.*hidden_terminal"):
            radio_profile_params("quantum_entangled")
        with pytest.raises(SpecError, match="radio_profile must be one of"):
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
        a = ExperimentSpec(scenario=generated_scenario("grid", "gravity"))
        b = ExperimentSpec(scenario=generated_scenario("grid", "gravity"))
        assert a is not b and spec_digest(a) == spec_digest(b)
        assert spec_digest(a) == spec_digest(a.to_dict())

    def test_digest_distinguishes_generator_parameters(self):
        base = ExperimentSpec(scenario=generated_scenario("grid", "saturated_udp"))
        other_topo = ExperimentSpec(scenario=generated_scenario("ring", "saturated_udp"))
        other_load = ExperimentSpec(scenario=generated_scenario("grid", "tcp_bulk"))
        assert len({spec_digest(base), spec_digest(other_topo), spec_digest(other_load)}) == 3

    def test_radio_and_profile_are_mutually_exclusive(self):
        from repro.experiment import RadioSpec

        with pytest.raises(SpecError, match="not both"):
            ScenarioSpec(
                scenario="generated",
                radio=RadioSpec(),
                radio_profile="hidden_terminal",
            )

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
        built = build_scenario(generated_scenario("parking_lot", "gravity"))
        assert built.meta["topology_generator"] == "parking_lot"
        assert built.meta["workload_generator"] == "gravity"
        assert built.meta["node_count"] == EXPECTED_NODES["parking_lot"]
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
        spec = generated_scenario("binary_tree", "mixed_tcp_udp", seed=9)
        a, b = build_scenario(spec), build_scenario(spec)
        assert a.network.positions == b.network.positions
        assert [f.path for f in a.flows] == [f.path for f in b.flows]
        assert [type(f).__name__ for f in a.flows] == [type(f).__name__ for f in b.flows]


# ---------------------------------------------------------------------------
# Cross-backend byte identity for generator-built sweeps.  Deliberately
# does NOT pin a backend: under the CI backend matrix
# (REPRO_BATCH_BACKEND exported) the same sweep genuinely dispatches
# through serial, process-pool and work-queue execution and must match
# the serial reference bit for bit.
# ---------------------------------------------------------------------------
def _fast_generated_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="generated",
            seed=seed,
            topology=TopologySpec(kind="parking_lot", num_nodes=2, spacing_m=55.0),
            workload=WorkloadSpec(generator="saturated_udp", num_flows=2, max_hops=2),
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
    def test_generated_sweep_matches_serial_reference_on_ambient_backend(self):
        sweep = [_fast_generated_spec(seed) for seed in range(2)]
        ambient = BatchRunner(sweep, cache=False).run()
        reference = BatchRunner(sweep, backend="serial", cache=False).run()
        expected = os.environ.get("REPRO_BATCH_BACKEND") or "process"
        assert ambient.backend == expected
        assert ambient.planner.executed == 2
        assert _canonical(ambient.to_dicts(include_runtime=False)) == _canonical(
            reference.to_dicts(include_runtime=False)
        )


class TestEdgeCases:
    def test_gravity_survives_underflowing_weights(self):
        """demand_exponent extreme enough to underflow every gravity
        weight to 0 must fall back to an even budget split, not NaN."""
        import math

        network = build_scenario(generated_scenario("grid", "saturated_udp")).network
        flows = generate_workload(
            network, "gravity", seed=2, num_flows=3, rate_bps=90e3,
            demand_exponent=400.0,
        )
        assert all(math.isfinite(f.rate_bps) for f in flows)
        assert sum(f.rate_bps for f in flows) == pytest.approx(90e3 * 3)
