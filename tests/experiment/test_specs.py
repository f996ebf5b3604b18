"""Spec layer: validation, round-tripping and materialization."""

from __future__ import annotations

import json

import pytest

from repro.experiment import (
    ChurnSpec,
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    MobilitySpec,
    ProbingSpec,
    RadioSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    spec_digest,
)
from repro.phy.radio import RATE_11MBPS


class TestValidation:
    def test_bad_topology_kind_rejected(self):
        with pytest.raises(SpecError):
            TopologySpec(kind="torus")

    def test_chain_needs_two_nodes(self):
        with pytest.raises(SpecError):
            TopologySpec(kind="chain", num_nodes=1)

    def test_positions_need_unique_ids(self):
        with pytest.raises(SpecError):
            TopologySpec(kind="positions", positions=((0, 0.0, 0.0), (0, 1.0, 1.0)))

    def test_unsupported_phy_rate_rejected(self):
        with pytest.raises(SpecError):
            RadioSpec(data_rate_mbps=54.0)

    def test_flow_path_too_short(self):
        with pytest.raises(SpecError):
            FlowSpec("udp", (3,))

    def test_flow_path_with_loop_rejected(self):
        with pytest.raises(SpecError):
            FlowSpec("udp", (0, 1, 0))

    def test_bad_transport_rejected(self):
        with pytest.raises(SpecError):
            FlowSpec("sctp", (0, 1))

    def test_negative_warmup_rejected(self):
        with pytest.raises(SpecError):
            ProbingSpec(warmup_s=-1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(SpecError):
            ControllerSpec(alpha=-0.5)

    def test_bad_rate_mode_rejected(self):
        with pytest.raises(SpecError):
            ScenarioSpec(scenario="random_multiflow", rate_mode="54")

    def test_settle_must_fit_in_measure_window(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cycle_measure_s=5.0, settle_s=5.0)

    def test_zero_cycles_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec(cycles=0)


class TestRoundTrip:
    def _full_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            scenario=ScenarioSpec(
                scenario="chain",
                seed=3,
                run_seed=17,
                data_rate_mbps=1,
                shadowing_sigma_db=4.0,
                topology=TopologySpec(kind="grid", rows=2, cols=3, spacing_m=45.0),
                radio=RadioSpec(tx_power_dbm=15.0, cs_threshold_dbm=-85.0),
                flows=(
                    FlowSpec("udp", (0, 1, 2), rate_bps=250e3),
                    FlowSpec("tcp", (4, 3), mss_bytes=512),
                ),
                transport="tcp",
            ),
            probing=ProbingSpec(period_s=0.25, warmup_s=30.0),
            controller=ControllerSpec(alpha=2.0, probing_window=64),
            cycles=2,
            cycle_measure_s=8.0,
            settle_s=1.0,
            label="round-trip",
        )

    def test_experiment_spec_round_trips(self):
        spec = self._full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_stable(self):
        import json

        payload = self._full_spec().to_dict()
        assert json.loads(json.dumps(payload)) == payload  # no tuples survive
        assert ExperimentSpec.from_dict(json.loads(json.dumps(payload))) == self._full_spec()

    def test_sub_specs_round_trip(self):
        for spec in (
            TopologySpec(kind="positions", positions=((0, 0.0, 0.0), (1, 50.0, 0.0))),
            RadioSpec(basic_rate_mbps=2),
            FlowSpec("tcp", (5, 6, 7)),
            ProbingSpec(data_probe_bytes=1000),
            ControllerSpec(enabled=False),
            ScenarioSpec(scenario="starvation", seed=9, data_rate_mbps=1),
        ):
            assert type(spec).from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError):
            ProbingSpec.from_dict({"period_s": 0.5, "warmupp": 3})


#: One instance of each of the ten spec classes, away from the defaults
#: and covering every kind of field (scalars, optional scalars, nested
#: and optional nested specs, tuples of ints / strings / specs / triples).
SPEC_TABLE = [
    TopologySpec(kind="positions", positions=((0, 0.0, 0.0), (3, 50.0, 1.5))),
    RadioSpec(tx_power_dbm=15.0, basic_rate_mbps=2),
    FlowSpec("tcp", (5, 6, 7), mss_bytes=512),
    WorkloadSpec(generator="gravity", rate_bps=150e3, weight_tail="pareto"),
    MobilitySpec(model="drift", drift_sigma_m=4.0),
    ChurnSpec(num_events=2, down_s=0.0, protect_endpoints=False),
    ProbingSpec(data_probe_bytes=1000),
    ControllerSpec(enabled=False, alpha=2.0),
    ScenarioSpec(
        scenario="generated",
        seed=3,
        run_seed=17,
        data_rate_mbps=1,
        topology=TopologySpec(kind="grid", rows=2, cols=3),
        radio_profile="low_power",
        flows=(FlowSpec("udp", (0, 1, 2), rate_bps=250e3), FlowSpec("tcp", (4, 3))),
        mobility=MobilitySpec(),
        churn=ChurnSpec(),
    ),
    ExperimentSpec(
        scenario=ScenarioSpec(scenario="starvation", data_rate_mbps=1),
        probing=ProbingSpec(warmup_s=30.0),
        monitors=("pdr", "throughput"),
        label="table",
    ),
]

#: One wrong-shaped value per kind of field: (class, field, value).
WRONG_SHAPES = [
    (TopologySpec, "num_nodes", "x"),  # int <- str
    (TopologySpec, "num_nodes", 2.5),  # int <- non-integral float
    (TopologySpec, "num_nodes", True),  # int <- bool
    (TopologySpec, "spacing_m", "60"),  # float <- str
    (TopologySpec, "kind", 5),  # str <- int
    (TopologySpec, "positions", [[1, 2]]),  # triple <- pair
    (TopologySpec, "positions", [[0, "a", 0.0], [1, 1.0, 1.0]]),  # triple item
    (TopologySpec, "positions", 7),  # tuple of triples <- scalar
    (ChurnSpec, "protect_endpoints", "yes"),  # bool <- str
    (FlowSpec, "path", 3),  # tuple of ints <- scalar
    (FlowSpec, "path", [0, "1"]),  # tuple item
    (FlowSpec, "rate_bps", "fast"),  # optional float <- str
    (ScenarioSpec, "run_seed", 1.5),  # optional int <- non-integral float
    (ScenarioSpec, "radio_profile", 3),  # optional str <- int
    (ScenarioSpec, "flows", None),  # tuple of specs <- null
    (ScenarioSpec, "flows", [3]),  # tuple of specs, item
    (ScenarioSpec, "topology", []),  # optional spec <- list
    (ExperimentSpec, "scenario", 5),  # spec <- scalar
    (ExperimentSpec, "monitors", 3),  # tuple of strs <- scalar
    (ExperimentSpec, "monitors", [1]),  # tuple of strs, item
]


class TestEverySpecClass:
    """The one (de)serializer, held to the same contract on every class."""

    @pytest.mark.parametrize("spec", SPEC_TABLE, ids=lambda s: type(s).__name__)
    def test_round_trip(self, spec):
        payload = spec.to_dict()
        assert type(spec).from_dict(payload) == spec
        wire = json.loads(json.dumps(payload))
        assert wire == payload  # no tuples, nothing json cannot carry
        assert type(spec).from_dict(wire) == spec
        assert type(spec).from_dict(wire).to_dict() == payload

    @pytest.mark.parametrize("spec", SPEC_TABLE, ids=lambda s: type(s).__name__)
    def test_unknown_field_rejected(self, spec):
        with pytest.raises(SpecError, match="unknown fields.*warmupp"):
            type(spec).from_dict({**spec.to_dict(), "warmupp": 3})

    @pytest.mark.parametrize("spec", SPEC_TABLE, ids=lambda s: type(s).__name__)
    def test_payload_must_be_a_mapping(self, spec):
        with pytest.raises(SpecError, match=type(spec).__name__):
            type(spec).from_dict([("seed", 1)])

    @pytest.mark.parametrize(
        "cls,field,value", WRONG_SHAPES, ids=lambda v: getattr(v, "__name__", repr(v))
    )
    def test_wrong_shape_names_the_field(self, cls, field, value):
        with pytest.raises(SpecError, match=rf"{cls.__name__}\.{field} must be"):
            cls.from_dict({field: value})

    def test_nested_errors_name_the_innermost_field(self):
        payload = ExperimentSpec().to_dict()
        payload["scenario"]["flows"] = [{"transport": "udp", "path": 3}]
        with pytest.raises(SpecError, match=r"FlowSpec\.path must be a list"):
            ExperimentSpec.from_dict(payload)

    def test_integral_floats_in_integer_fields_become_ints(self):
        """``1.0 == 1`` but they serialize differently: before the
        deserializer normalized them one experiment had two digests."""
        spec = ScenarioSpec.from_dict({"seed": 1.0, "run_seed": 4.0})
        assert type(spec.seed) is int and type(spec.run_seed) is int
        assert spec_digest(ExperimentSpec(scenario=spec)) == spec_digest(
            ExperimentSpec(scenario=ScenarioSpec(seed=1, run_seed=4))
        )
        flow = FlowSpec.from_dict({"path": [0.0, 1.0]})
        assert flow.to_dict()["path"] == [0, 1]
        assert all(type(node) is int for node in flow.path)

    def test_float_fields_keep_the_number_they_were_given(self):
        """The goldens embed ``data_rate_mbps: 1`` (an int in a float
        field); normalizing it would move their digests."""
        assert ScenarioSpec.from_dict({"data_rate_mbps": 1}).to_dict()[
            "data_rate_mbps"
        ] == 1
        assert type(ScenarioSpec.from_dict({"data_rate_mbps": 1}).data_rate_mbps) is int


class TestMaterialization:
    def test_topology_builds_expected_shapes(self):
        assert len(TopologySpec(kind="chain", num_nodes=5).build()) == 5
        assert len(TopologySpec(kind="grid", rows=2, cols=3).build()) == 6
        assert len(TopologySpec(kind="testbed").build(seed=1)) == 18
        explicit = TopologySpec(
            kind="positions", positions=((0, 0.0, 0.0), (4, 10.0, 5.0))
        ).build()
        assert explicit == {0: (0.0, 0.0), 4: (10.0, 5.0)}

    def test_radio_spec_builds_radio_config(self):
        config = RadioSpec(cs_threshold_dbm=-80.0, data_rate_mbps=11).build()
        assert config.cs_threshold_dbm == -80.0
        assert config.data_rate is RATE_11MBPS

    def test_controller_spec_utility(self):
        assert ControllerSpec(alpha=1.0).utility.is_proportional_fair
        assert ControllerSpec(alpha=0.0).utility.is_throughput_maximising

    def test_with_seed_re_seeds_scenario(self):
        spec = ExperimentSpec(scenario=ScenarioSpec(scenario="chain", seed=1))
        reseeded = spec.with_seed(9, run_seed=42)
        assert reseeded.scenario.seed == 9
        assert reseeded.scenario.run_seed == 42
        assert spec.scenario.seed == 1  # original untouched
