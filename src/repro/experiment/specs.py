"""Frozen, serializable experiment specifications.

The declarative front door to the reproduction: an experiment is fully
described by a tree of frozen dataclasses —

* :class:`TopologySpec` — where the nodes are: any registered topology
  generator of :mod:`repro.sim.generators` (chain/line, grid, ring,
  random-disk, binary-tree, parking-lot, the 18-node testbed) or
  explicit positions;
* :class:`RadioSpec` — transmit power, carrier-sense threshold and PHY
  rates shared by every node;
* :class:`FlowSpec` — one explicit traffic flow (transport, route,
  shaping);
* :class:`WorkloadSpec` — a *generated* flow set: a registered workload
  generator name (saturated UDP, TCP bulk, mixed TCP/UDP, gravity
  demands) plus its demand parameters;
* :class:`ProbingSpec` — the broadcast probing system and its warmup;
* :class:`ControllerSpec` — the online optimizer (alpha-fair objective,
  probing window, interference model), or disabled for the paper's
  ``noRC`` baselines;
* :class:`ScenarioSpec` — a named, registered scenario (see
  :mod:`repro.experiment.registry`) plus the knobs its builder reads;
* :class:`ExperimentSpec` — scenario + probing + controller + the
  warmup/cycle/measure schedule.

Every spec validates its fields on construction (raising
:class:`SpecError`) and round-trips through ``to_dict``/``from_dict``,
which is what the parallel :class:`repro.experiment.batch.BatchRunner`
ships across process boundaries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

from repro.core.utility import AlphaFairUtility
from repro.phy.radio import RATE_TABLE, RadioConfig, rate_from_mbps


class SpecError(ValueError):
    """Raised when an experiment specification is invalid."""


#: Version tag mixed into every spec digest.  Bump it whenever a change to
#: the spec schema *or* to the simulation semantics behind it invalidates
#: previously computed :class:`ExperimentResult` payloads — cached entries
#: keyed under the old version simply stop matching and age out.
#:
#: Version history:
#:
#: 1. initial declarative schema;
#: 2. composable scenario generators — :class:`TopologySpec` grew the
#:    generator kinds/parameters (``ring``, ``random_disk``,
#:    ``binary_tree``, ``parking_lot``, ...), :class:`ScenarioSpec` grew
#:    ``workload`` and ``radio_profile``, and :class:`WorkloadSpec` was
#:    added, so every canonical spec dict (and therefore every digest)
#:    changed;
#: 3. dynamic scenarios — :class:`MobilitySpec` and :class:`ChurnSpec`
#:    were added (``ScenarioSpec`` grew ``mobility``/``churn``),
#:    :class:`WorkloadSpec` grew the heavy-tailed gravity knobs
#:    (``weight_tail``/``tail_index``), and :class:`ExperimentSpec` grew
#:    the run-time monitor selection (``monitors`` /
#:    ``monitor_interval_s``), so every canonical spec dict changed
#:    again;
#: 4. controller decisions are quantized to 1e-3 b/s where they leave
#:    the solver (``OnlineOptimizer.optimize``), so payloads cached
#:    under version 3 hold unquantized ``target_bps``.
SPEC_SCHEMA_VERSION = 4


def spec_digest(spec: "ExperimentSpec | Mapping[str, Any]",
                schema_version: int = SPEC_SCHEMA_VERSION) -> str:
    """Content address of an experiment: a stable hex digest of the
    canonical spec dict plus the schema version.

    The digest is computed over the sorted-key, minimal-separator JSON
    encoding of ``{"schema": schema_version, "spec": spec.to_dict()}``,
    so it is independent of dict insertion order, process hash
    randomization, and whether the caller holds a typed
    :class:`ExperimentSpec` or its plain-dict payload.  Two specs share a
    digest iff their canonical dicts are equal — which, by the
    determinism guarantees of the runner, means their results are
    bit-identical.
    """
    payload = spec.to_dict() if isinstance(spec, ExperimentSpec) else spec
    canonical = json.dumps(
        {"schema": int(schema_version), "spec": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


Positions = dict[int, tuple[float, float]]

#: Deprecated static alias kept for discoverability; the authoritative
#: vocabulary is the topology generator registry of
#: :mod:`repro.sim.generators` (``topology_names()``), which third-party
#: generators extend at runtime.
TOPOLOGY_KINDS = (
    "chain", "line", "grid", "ring", "random_disk", "binary_tree",
    "parking_lot", "testbed", "positions",
)
TRANSPORTS = ("udp", "tcp")
RATE_MODES = ("1", "11", "mixed")
#: Gravity-workload node-weight distributions (:class:`WorkloadSpec`).
WEIGHT_TAILS = ("uniform", "pareto")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _jsonify(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    return value


def _spec_to_dict(spec: Any) -> dict[str, Any]:
    """``dataclasses.asdict`` with tuples converted to lists, so payloads
    are stable under a JSON round-trip (``d == json.loads(json.dumps(d))``)."""
    return _jsonify(asdict(spec))


def _filter_kwargs(cls: type, data: Mapping[str, Any]) -> dict[str, Any]:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SpecError(f"{cls.__name__}: unknown fields {sorted(unknown)}")
    return dict(data)


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """Node placement for a scenario: a topology generator name plus its
    parameters.

    ``kind`` is any generator registered with
    :func:`repro.sim.generators.register_topology`; the built-ins are
    ``"chain"``/``"line"``, ``"grid"``, ``"ring"``, ``"random_disk"``,
    ``"binary_tree"``, ``"parking_lot"``, ``"testbed"`` and
    ``"positions"``.  Generators read the parameter fields they care
    about and ignore the rest:

    Attributes:
        kind: registered topology generator name.
        num_nodes: node count for chains/lines, rings, random disks; the
            backbone length for parking lots.
        rows / cols: grid dimensions (``kind="grid"``).
        spacing_m: inter-node spacing for chains, grids, trees and
            parking-lot backbones.
        jitter_m: placement jitter for the testbed layout.
        radius_m: circle radius for rings, disk radius for random disks.
        depth: number of levels of a binary tree (``2**depth - 1`` nodes).
        min_separation_m: minimum pairwise node distance for random disks.
        stub_m: entry-stub offset off the parking-lot backbone.
        positions: explicit ``(node_id, x, y)`` triples
            (``kind="positions"``).
    """

    kind: str = "chain"
    num_nodes: int = 3
    rows: int = 2
    cols: int = 2
    spacing_m: float = 60.0
    jitter_m: float = 6.0
    radius_m: float = 150.0
    depth: int = 3
    min_separation_m: float = 25.0
    stub_m: float = 45.0
    positions: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        from repro.sim.generators import topology_names

        _require(self.kind in topology_names(),
                 f"topology kind must be a registered generator, one of "
                 f"{topology_names()}; got {self.kind!r}")
        _require(self.spacing_m > 0, "spacing_m must be positive")
        _require(self.radius_m > 0, "radius_m must be positive")
        _require(self.min_separation_m >= 0, "min_separation_m must be non-negative")
        _require(self.stub_m > 0, "stub_m must be positive")
        if self.kind in ("chain", "line", "parking_lot", "random_disk"):
            _require(self.num_nodes >= 2,
                     f"a {self.kind} topology needs at least two nodes")
        if self.kind == "ring":
            _require(self.num_nodes >= 3, "a ring needs at least three nodes")
        if self.kind == "grid":
            _require(self.rows >= 1 and self.cols >= 1, "grid dimensions must be positive")
        if self.kind == "binary_tree":
            _require(self.depth >= 2, "a binary tree needs at least two levels")
        if self.kind == "positions":
            _require(len(self.positions) >= 2, "explicit topologies need at least two nodes")
            ids = [int(p[0]) for p in self.positions]
            _require(len(ids) == len(set(ids)), "duplicate node ids in positions")

    def build(self, seed: int = 0) -> Positions:
        """Materialize the node id -> (x, y) placement map through the
        topology generator registry."""
        from repro.sim.generators import build_topology

        return build_topology(self.kind, self.to_dict(), seed=seed)

    def node_count(self) -> int:
        """Node count this topology will produce (without building it)."""
        from repro.sim.generators import topology_node_count

        return topology_node_count(self.kind, self.to_dict())

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        kwargs = _filter_kwargs(cls, data)
        if "positions" in kwargs:
            kwargs["positions"] = tuple(
                (int(n), float(x), float(y)) for n, x, y in kwargs["positions"]
            )
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Radio
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RadioSpec:
    """Radio configuration shared by all nodes (see :class:`RadioConfig`)."""

    tx_power_dbm: float = 19.0
    cs_threshold_dbm: float = -91.0
    antenna_gain_dbi: float = 5.0
    data_rate_mbps: float = 11.0
    basic_rate_mbps: float = 1.0

    def __post_init__(self) -> None:
        for name in ("data_rate_mbps", "basic_rate_mbps"):
            value = getattr(self, name)
            _require(value in RATE_TABLE,
                     f"{name} must be one of {sorted(RATE_TABLE)}, got {value!r}")

    def build(self) -> RadioConfig:
        return RadioConfig(
            tx_power_dbm=self.tx_power_dbm,
            cs_threshold_dbm=self.cs_threshold_dbm,
            antenna_gain_dbi=self.antenna_gain_dbi,
            data_rate=rate_from_mbps(self.data_rate_mbps),
            basic_rate=rate_from_mbps(self.basic_rate_mbps),
        )

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RadioSpec":
        return cls(**_filter_kwargs(cls, data))


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FlowSpec:
    """One traffic flow: transport, explicit route and shaping parameters.

    ``rate_bps`` follows :meth:`MeshNetwork.add_udp_flow` semantics:
    ``None`` (the default) is a backlogged/saturating source, a positive
    value is a CBR source at that rate, and ``0.0`` starts the flow idle
    until the controller programs it.  TCP flows are window-limited and
    ignore ``rate_bps``.
    """

    transport: str = "udp"
    path: tuple[int, ...] = ()
    rate_bps: float | None = None
    payload_bytes: int = 1470
    mss_bytes: int = 1460

    def __post_init__(self) -> None:
        _require(self.transport in TRANSPORTS,
                 f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        _require(len(self.path) >= 2, "a flow path needs at least two nodes")
        _require(len(set(self.path)) == len(self.path), "flow path revisits a node")
        _require(self.rate_bps is None or self.rate_bps >= 0,
                 "rate_bps must be None (backlogged) or non-negative")
        _require(self.payload_bytes > 0 and self.mss_bytes > 0,
                 "payload_bytes and mss_bytes must be positive")

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSpec":
        kwargs = _filter_kwargs(cls, data)
        if "path" in kwargs:
            kwargs["path"] = tuple(int(n) for n in kwargs["path"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A generated flow set: workload generator name plus demand knobs.

    ``generator`` is any name registered with
    :func:`repro.sim.generators.register_workload`; the built-ins are
    ``"saturated_udp"``, ``"tcp_bulk"``, ``"mixed_tcp_udp"`` and
    ``"gravity"``.  The generator routes its demands over ETT paths of
    the built network and draws all randomness from a generator-private
    RNG stream spawned from the scenario seed
    (:func:`repro.sim.generators.workload_rng`), so the same spec always
    produces the same flows.

    ``rate_bps`` follows :class:`FlowSpec` semantics for the UDP flows a
    generator emits: ``None`` saturates, ``0.0`` starts idle until the
    controller programs the flow, a positive value is a CBR rate (the
    ``gravity`` generator splits ``rate_bps * num_flows`` across demands
    by gravity weight instead of handing every flow the same rate).

    ``weight_tail`` selects the gravity node-weight distribution:
    ``"uniform"`` (the historical default) or ``"pareto"``, which draws
    heavy-tailed Lomax weights with shape ``tail_index`` so a few nodes
    dominate the traffic matrix, as in measured mesh deployments.  Both
    fields are ignored by the non-gravity generators.
    """

    generator: str = "saturated_udp"
    num_flows: int = 4
    max_hops: int = 4
    rate_bps: float | None = None
    tcp_fraction: float = 0.5
    payload_bytes: int = 1470
    mss_bytes: int = 1460
    demand_exponent: float = 1.0
    weight_tail: str = "uniform"
    tail_index: float = 1.5

    def __post_init__(self) -> None:
        from repro.sim.generators import workload_names

        _require(self.generator in workload_names(),
                 f"workload generator must be a registered name, one of "
                 f"{workload_names()}; got {self.generator!r}")
        _require(self.num_flows >= 1, "num_flows must be at least 1")
        _require(self.max_hops >= 1, "max_hops must be at least 1")
        _require(self.rate_bps is None or self.rate_bps >= 0,
                 "rate_bps must be None (backlogged) or non-negative")
        _require(0.0 <= self.tcp_fraction <= 1.0,
                 "tcp_fraction must lie in [0, 1]")
        _require(self.payload_bytes > 0 and self.mss_bytes > 0,
                 "payload_bytes and mss_bytes must be positive")
        _require(self.demand_exponent > 0, "demand_exponent must be positive")
        _require(self.weight_tail in WEIGHT_TAILS,
                 f"weight_tail must be one of {WEIGHT_TAILS}, "
                 f"got {self.weight_tail!r}")
        _require(self.tail_index > 0, "tail_index must be positive")

    def params(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.sim.generators.generate_workload`."""
        data = _spec_to_dict(self)
        data.pop("generator")
        return data

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return cls(**_filter_kwargs(cls, data))


# ---------------------------------------------------------------------------
# Dynamics: mobility and churn
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MobilitySpec:
    """Node mobility for a ``generated`` scenario.

    ``model`` is any name registered with
    :func:`repro.sim.dynamics.register_mobility`; the built-ins are
    ``"waypoint"`` (random waypoint inside the initial bounding box plus
    ``area_margin_m``, moving at ``speed_mps`` and pausing ``pause_s`` at
    each target) and ``"drift"`` (per-epoch Gaussian displacement with
    standard deviation ``drift_sigma_m``, clipped to the same box).

    Positions advance in discrete *position epochs* every ``epoch_s``
    seconds of virtual time; each epoch the
    :class:`~repro.sim.dynamics.DynamicsDriver` rebuilds only the power-
    table rows/columns of the nodes that actually moved.  All trajectory
    randomness comes from a model-private ``rng_spawn_key`` stream seeded
    by the scenario ``seed`` (like topology placement), never from the
    simulation streams.
    """

    model: str = "waypoint"
    epoch_s: float = 1.0
    speed_mps: float = 1.5
    pause_s: float = 0.0
    drift_sigma_m: float = 2.0
    area_margin_m: float = 25.0

    def __post_init__(self) -> None:
        from repro.sim.dynamics import mobility_names

        _require(self.model in mobility_names(),
                 f"mobility model must be a registered name, one of "
                 f"{mobility_names()}; got {self.model!r}")
        _require(self.epoch_s > 0, "epoch_s must be positive")
        _require(self.speed_mps >= 0, "speed_mps must be non-negative")
        _require(self.pause_s >= 0, "pause_s must be non-negative")
        _require(self.drift_sigma_m >= 0, "drift_sigma_m must be non-negative")
        _require(self.area_margin_m >= 0, "area_margin_m must be non-negative")

    def params(self) -> dict[str, Any]:
        """Keyword parameters for :func:`repro.sim.dynamics.build_mobility`."""
        data = _spec_to_dict(self)
        data.pop("model")
        return data

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MobilitySpec":
        return cls(**_filter_kwargs(cls, data))


@dataclass(frozen=True)
class ChurnSpec:
    """Seeded node join/fail schedule for a ``generated`` scenario.

    ``num_events`` node failures are drawn uniformly (without
    replacement) from the non-protected nodes, at times uniform in
    ``[start_s, end_s]`` of virtual time; a failed node rejoins
    ``down_s`` seconds later (``down_s=0`` means the failure is
    permanent).  With ``protect_endpoints`` (the default) the sources and
    sinks of the scenario's routed flows never fail, so churn exercises
    relay loss — the paper-relevant case — without silencing traffic
    altogether.  The schedule is drawn from the private ``"churn"``
    ``rng_spawn_key`` stream seeded by the scenario ``seed``.
    """

    num_events: int = 1
    start_s: float = 0.0
    end_s: float = 60.0
    down_s: float = 10.0
    protect_endpoints: bool = True

    def __post_init__(self) -> None:
        _require(self.num_events >= 1, "num_events must be at least 1")
        _require(self.start_s >= 0, "start_s must be non-negative")
        _require(self.end_s >= self.start_s, "end_s must be at least start_s")
        _require(self.down_s >= 0, "down_s must be non-negative (0 = permanent)")

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnSpec":
        return cls(**_filter_kwargs(cls, data))


# ---------------------------------------------------------------------------
# Probing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProbingSpec:
    """Broadcast probing system settings plus the measurement warmup."""

    period_s: float = 0.5
    data_probe_bytes: int = 1500
    warmup_s: float = 45.0

    def __post_init__(self) -> None:
        _require(self.period_s > 0, "period_s must be positive")
        _require(self.data_probe_bytes > 0, "data_probe_bytes must be positive")
        _require(self.warmup_s >= 0, "warmup_s must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProbingSpec":
        return cls(**_filter_kwargs(cls, data))


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ControllerSpec:
    """The online optimization loop, or disabled for a noRC baseline.

    ``alpha`` selects the alpha-fair objective: 0 is the paper's TCP-Max,
    1 is proportional fairness (TCP-Prop).
    """

    enabled: bool = True
    alpha: float = 1.0
    probing_window: int = 120
    payload_bytes: int = 1470
    interference: str = "two_hop"
    connectivity_threshold: float = 0.5
    min_probes_for_estimator: int = 40

    def __post_init__(self) -> None:
        _require(self.alpha >= 0, "alpha must be non-negative")
        _require(self.probing_window >= 1, "probing_window must be at least 1")
        _require(self.payload_bytes > 0, "payload_bytes must be positive")
        _require(self.interference == "two_hop",
                 f"interference must be 'two_hop', got {self.interference!r}")
        _require(0.0 < self.connectivity_threshold <= 1.0,
                 "connectivity_threshold must lie in (0, 1]")
        _require(self.min_probes_for_estimator >= 1,
                 "min_probes_for_estimator must be at least 1")

    @property
    def utility(self) -> AlphaFairUtility:
        return AlphaFairUtility(alpha=self.alpha)

    def to_dict(self) -> dict[str, Any]:
        return _spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ControllerSpec":
        return cls(**_filter_kwargs(cls, data))


#: Convenience baseline: no rate control at all (the paper's ``noRC``).
NO_RATE_CONTROL = ControllerSpec(enabled=False)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A named scenario plus the knobs its registered builder reads.

    ``scenario`` is a key in the scenario registry
    (:func:`repro.experiment.registry.register_scenario`); the built-in
    names are ``"chain"``, ``"testbed"``, ``"random_multiflow"``,
    ``"starvation"`` and the fully declarative ``"generated"``, which
    composes a topology generator (``topology``), a workload generator
    (``workload``, or explicit ``flows``) and a named radio profile
    (``radio_profile``).  ``seed`` fixes topology and shadowing;
    ``run_seed`` (defaulting to ``seed``) re-seeds only traffic/backoff
    randomness so one physical configuration can be re-run independently.

    Not every field is read by every builder — ``rate_mode`` matters to
    ``random_multiflow`` and ``generated`` (link-rate assignment), while
    ``num_flows`` / ``max_hops`` / ``transport`` matter only to
    ``random_multiflow``: a ``generated`` workload carries its own
    demand knobs on :class:`WorkloadSpec`.  ``topology`` / ``radio`` /
    ``flows`` are ignored by ``starvation``, which fixes its own
    three-node gateway chain.
    ``radio`` and ``radio_profile`` are mutually exclusive; the profile
    resolves against :data:`repro.sim.generators.RADIO_PROFILES` at
    build time, at the scenario's ``data_rate_mbps``.
    """

    scenario: str = "chain"
    seed: int = 0
    run_seed: int | None = None
    data_rate_mbps: float = 11.0
    shadowing_sigma_db: float | None = None
    topology: TopologySpec | None = None
    radio: RadioSpec | None = None
    radio_profile: str | None = None
    flows: tuple[FlowSpec, ...] = ()
    workload: WorkloadSpec | None = None
    num_flows: int = 4
    max_hops: int = 4
    rate_mode: str = "mixed"
    transport: str = "udp"
    mobility: MobilitySpec | None = None
    churn: ChurnSpec | None = None

    def __post_init__(self) -> None:
        _require(bool(self.scenario), "scenario name must be non-empty")
        _require(self.seed >= 0, "seed must be non-negative")
        _require(self.run_seed is None or self.run_seed >= 0,
                 "run_seed must be non-negative")
        _require(self.data_rate_mbps in RATE_TABLE,
                 f"data_rate_mbps must be one of {sorted(RATE_TABLE)}")
        _require(self.shadowing_sigma_db is None or self.shadowing_sigma_db >= 0,
                 "shadowing_sigma_db must be non-negative")
        _require(self.num_flows >= 1, "num_flows must be at least 1")
        _require(self.max_hops >= 1, "max_hops must be at least 1")
        _require(self.rate_mode in RATE_MODES,
                 f"rate_mode must be one of {RATE_MODES}, got {self.rate_mode!r}")
        _require(self.transport in TRANSPORTS,
                 f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        _require(self.radio is None or self.radio_profile is None,
                 "give either radio or radio_profile, not both")
        _require(not (self.flows and self.workload is not None),
                 "give either explicit flows or a workload generator, not both")
        _require(self.mobility is None or self.scenario == "generated",
                 "mobility is only supported by the 'generated' scenario")
        _require(self.churn is None or self.scenario == "generated",
                 "churn is only supported by the 'generated' scenario")
        if self.radio_profile is not None:
            from repro.sim.generators import radio_profile_names

            _require(self.radio_profile in radio_profile_names(),
                     f"radio_profile must be one of {radio_profile_names()}, "
                     f"got {self.radio_profile!r}")

    def with_seed(self, seed: int, run_seed: int | None = None) -> "ScenarioSpec":
        """The same scenario re-seeded (used by batch seed sweeps)."""
        return replace(self, seed=seed, run_seed=run_seed)

    def describe(self) -> str:
        """Compact human-readable identity, e.g. ``generated(grid 2x3,
        mixed_tcp_udp)`` — what reports print when no label is set."""
        if self.scenario != "generated":
            return self.scenario
        parts = []
        if self.topology is not None:
            shape = {
                "grid": f"grid {self.topology.rows}x{self.topology.cols}",
                "binary_tree": f"binary_tree d{self.topology.depth}",
            }.get(self.topology.kind, f"{self.topology.kind} {self.topology.node_count()}")
            parts.append(shape)
        if self.workload is not None:
            parts.append(self.workload.generator)
        elif self.flows:
            parts.append(f"{len(self.flows)} flow(s)")
        if self.radio_profile and self.radio_profile != "default":
            parts.append(self.radio_profile)
        if self.mobility is not None:
            parts.append(f"{self.mobility.model} mobility")
        if self.churn is not None:
            parts.append("churn")
        return f"generated({', '.join(parts)})" if parts else "generated"

    def to_dict(self) -> dict[str, Any]:
        data = _spec_to_dict(self)
        data["topology"] = self.topology.to_dict() if self.topology else None
        data["radio"] = self.radio.to_dict() if self.radio else None
        data["flows"] = [flow.to_dict() for flow in self.flows]
        data["workload"] = self.workload.to_dict() if self.workload else None
        data["mobility"] = self.mobility.to_dict() if self.mobility else None
        data["churn"] = self.churn.to_dict() if self.churn else None
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        kwargs = _filter_kwargs(cls, data)
        if kwargs.get("topology") is not None:
            kwargs["topology"] = TopologySpec.from_dict(kwargs["topology"])
        if kwargs.get("radio") is not None:
            kwargs["radio"] = RadioSpec.from_dict(kwargs["radio"])
        if "flows" in kwargs:
            kwargs["flows"] = tuple(FlowSpec.from_dict(f) for f in kwargs["flows"])
        if kwargs.get("workload") is not None:
            kwargs["workload"] = WorkloadSpec.from_dict(kwargs["workload"])
        if kwargs.get("mobility") is not None:
            kwargs["mobility"] = MobilitySpec.from_dict(kwargs["mobility"])
        if kwargs.get("churn") is not None:
            kwargs["churn"] = ChurnSpec.from_dict(kwargs["churn"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Experiment
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, runnable experiment.

    Schedule: probing warms up for ``probing.warmup_s`` of virtual time
    (skipped when the controller is disabled — a noRC baseline measures
    raw 802.11, with no probe traffic on the air), then flows start and
    ``cycles`` optimization/measurement rounds run, each
    ``cycle_measure_s`` long with the first ``settle_s`` seconds excluded
    from throughput accounting.

    ``monitors`` names run-time monitors from the
    :mod:`repro.monitors` registry (``"pdr"``, ``"throughput"``,
    ``"e2e_latency"``) attached when the flows start; each samples every
    ``monitor_interval_s`` of virtual time and emits typed per-flow time
    series into :attr:`ExperimentResult.monitors`.  Monitor selection
    lives on the spec — not an environment knob — because the series are
    part of the content-addressed result payload: two runs of one digest
    must produce byte-identical payloads through every cache and broker
    path.
    """

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    probing: ProbingSpec = field(default_factory=ProbingSpec)
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    cycles: int = 1
    cycle_measure_s: float = 10.0
    settle_s: float = 2.0
    label: str = ""
    monitors: tuple[str, ...] = ()
    monitor_interval_s: float = 1.0

    def __post_init__(self) -> None:
        _require(self.cycles >= 1, "cycles must be at least 1")
        _require(self.cycle_measure_s > 0, "cycle_measure_s must be positive")
        _require(0 <= self.settle_s < self.cycle_measure_s,
                 "settle_s must be non-negative and shorter than cycle_measure_s")
        _require(self.monitor_interval_s > 0, "monitor_interval_s must be positive")
        _require(len(set(self.monitors)) == len(self.monitors),
                 "monitors must not repeat a name")
        if self.monitors:
            from repro.monitors import monitor_names

            for name in self.monitors:
                _require(name in monitor_names(),
                         f"monitors must be registered names, one of "
                         f"{monitor_names()}; got {name!r}")

    def with_seed(self, seed: int, run_seed: int | None = None) -> "ExperimentSpec":
        """The same experiment on a re-seeded scenario."""
        return replace(self, scenario=self.scenario.with_seed(seed, run_seed))

    def describe(self) -> str:
        controller = (self.controller.utility.describe()
                      if self.controller.enabled else "no rate control")
        return (f"{self.label or self.scenario.describe()}"
                f" [seed={self.scenario.seed}, {controller}, {self.cycles} cycle(s)]")

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "probing": self.probing.to_dict(),
            "controller": self.controller.to_dict(),
            "cycles": self.cycles,
            "cycle_measure_s": self.cycle_measure_s,
            "settle_s": self.settle_s,
            "label": self.label,
            "monitors": list(self.monitors),
            "monitor_interval_s": self.monitor_interval_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        kwargs = _filter_kwargs(cls, data)
        if "scenario" in kwargs:
            kwargs["scenario"] = ScenarioSpec.from_dict(kwargs["scenario"])
        if "probing" in kwargs:
            kwargs["probing"] = ProbingSpec.from_dict(kwargs["probing"])
        if "controller" in kwargs:
            kwargs["controller"] = ControllerSpec.from_dict(kwargs["controller"])
        if "monitors" in kwargs:
            kwargs["monitors"] = tuple(str(name) for name in kwargs["monitors"])
        return cls(**kwargs)
