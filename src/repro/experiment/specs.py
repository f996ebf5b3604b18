"""Frozen, serializable experiment specifications.

The declarative front door to the reproduction: an experiment is fully
described by a tree of frozen dataclasses —

* :class:`TopologySpec` — where the nodes are: a topology generator of
  :mod:`repro.sim.generators` (chain, grid, random disk, the 18-node
  testbed);
* :class:`FlowSpec` — one explicit traffic flow (transport, route,
  shaping);
* :class:`WorkloadSpec` — a *generated* flow set: a workload generator
  name (mixed TCP/UDP demands, the paper's random pairs) plus its demand
  parameters;
* :class:`ProbingSpec` — the broadcast probing system and its warmup;
* :class:`ControllerSpec` — the online optimizer (alpha-fair objective,
  probing window, interference model), or disabled for the paper's
  ``noRC`` baselines;
* :class:`ScenarioSpec` — a built-in scenario name (``generated`` or a
  preset, see :mod:`repro.experiment.registry`) plus the knobs it reads;
* :class:`ExperimentSpec` — scenario + probing + controller + the
  warmup/cycle/measure schedule.

Every spec validates its fields on construction (raising
:class:`SpecError`; a name that is no key of its table is refused
listing the keys) and round-trips through ``to_dict``/``from_dict``,
which is what the parallel :class:`repro.experiment.batch.BatchRunner`
ships across process boundaries.  Both directions are driven by the
dataclass fields (:class:`_Spec`): a spec class declares its fields,
their types and defaults, and its cross-field rules — nothing about
serialization.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, NamedTuple, TypeVar, get_args, get_origin, get_type_hints

from repro.core.utility import AlphaFairUtility
from repro.monitors.flows import MONITORS
from repro.phy.radio import RATE_TABLE
from repro.sim.dynamics import MOBILITY_MODELS
from repro.sim.generators import RADIO_PROFILES, TOPOLOGIES, WORKLOADS, TopologyGenerator


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
#:    under version 3 hold unquantized ``target_bps``;
#: 5. the rate program is solved over the non-dominated extreme points
#:    only (``RateOptimizer``'s presolve) and in units of its starting
#:    objective: the optimum is the same, but SLSQP reaches it along
#:    another path, so decisions cached under version 4 differ from
#:    recomputed ones by a few b/s;
#: 6. the concave rate program is solved by an interior-point Newton
#:    iteration (``RateOptimizer._solve_concave``) in place of SLSQP:
#:    decisions land within 1e-10 of the optimum where SLSQP stopped up
#:    to 1e-5 short, so targets cached under version 5 differ from
#:    recomputed ones in the last printed digits;
#: 7. the max-throughput (alpha = 0) program is solved by the same
#:    iteration in place of scipy's ``linprog``: on a tied face it
#:    returns the central-path limit, which spreads the tied rate across
#:    the face, where HiGHS returned a vertex, so alpha = 0 targets
#:    cached under version 6 can differ from recomputed ones;
#: 8. the spec keeps only the values a run uses: the ``ring``,
#:    ``binary_tree``, ``parking_lot``, ``positions`` and ``line``
#:    topologies, the ``saturated_udp``, ``tcp_bulk`` and ``gravity``
#:    workloads, ``waypoint`` mobility, the ``e2e_latency`` monitor, every
#:    radio profile but ``hidden_terminal``, ``ScenarioSpec.radio`` and the
#:    ``testbed`` preset are gone with their fields, so every canonical
#:    spec dict lost keys (a version 7 dict holding one is refused by
#:    ``from_dict``, which names it).
SPEC_SCHEMA_VERSION = 8


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

TRANSPORTS = ("udp", "tcp")
#: ``"mixed"``, or one rate of :data:`RATE_TABLE` in Mb/s for every link.
RATE_MODES = (*(f"{rate:g}" for rate in RATE_TABLE), "mixed")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _require_key(table: Mapping[str, Any], name: Any, what: str) -> None:
    """Refuse ``name`` unless it is a key of ``table``, listing the keys."""
    _require(name in table, f"{what} must be one of {sorted(table)}, got {name!r}")


# ---------------------------------------------------------------------------
# The one (de)serializer
# ---------------------------------------------------------------------------
def _encode(value: Any) -> Any:
    """A field value as plain JSON data: specs become dicts and tuples
    lists, so payloads are stable under a JSON round-trip
    (``d == json.loads(json.dumps(d))``)."""
    if isinstance(value, _Spec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


def _expect(ok: bool, where: str, expected: str, value: Any) -> None:
    if not ok:
        raise SpecError(f"{where} must be {expected}, got {value!r}")


_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _decode(tp: Any, value: Any, where: str) -> Any:
    """``value`` (plain JSON data, possibly hostile: specs arrive over
    HTTP in worker envelopes) as field type ``tp``, or a
    :class:`SpecError` naming ``where``.

    The field types in use are ``bool``/``int``/``float``/``str``, a
    nested spec, ``tuple[X, ...]``, and ``X | None`` of any of those.
    """
    if tp in _SCALARS:
        if tp is int and isinstance(value, float) and value.is_integer():
            # 1.0 and 1 compare equal but serialize — and so digest —
            # differently; an integer field holds exactly one of them.
            return int(value)
        _expect(isinstance(value, (int, float) if tp is float else tp)
                and (tp is bool or not isinstance(value, bool)),
                where, _SCALARS[tp], value)
        return value
    args = get_args(tp)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (tp,) = (arg for arg in args if arg is not type(None))
        return _decode(tp, value, where)
    if get_origin(tp) is tuple:
        _expect(isinstance(value, (list, tuple)), where, "a list", value)
        return tuple(_decode(args[0], item, where) for item in value)
    _expect(isinstance(value, Mapping), where, "a mapping", value)
    return tp.from_dict(value)  # a nested spec


@lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, Any]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


S = TypeVar("S", bound="_Spec")


class _Spec:
    """What every spec dataclass inherits: ``to_dict``/``from_dict``
    driven by its own fields."""

    def to_dict(self) -> dict[str, Any]:
        """The canonical plain-data form (what :func:`spec_digest`
        hashes and every backend ships)."""
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls: type[S], data: Mapping[str, Any]) -> S:
        """Rebuild the spec from (a subset of) its ``to_dict`` form.

        Unknown fields, and values whose shape does not match the
        field's type, raise :class:`SpecError` naming ``Class.field``;
        integral floats in integer fields become ``int``.
        """
        _expect(isinstance(data, Mapping), cls.__name__, "a mapping", data)
        types = _field_types(cls)
        unknown = sorted(set(data) - set(types), key=str)
        _require(not unknown, f"{cls.__name__}: unknown fields {unknown}")
        return cls(**{
            name: _decode(types[name], value, f"{cls.__name__}.{name}")
            for name, value in data.items()
        })


class _GeneratorSpec(_Spec):
    """A spec whose first field names a generator and whose other fields
    are that generator's parameters."""

    def params(self) -> dict[str, Any]:
        """The parameter fields (everything but the name), as the
        keyword arguments the sim-layer generator takes."""
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)[1:]}


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec(_Spec):
    """Node placement for a scenario: a topology generator name plus its
    parameters.

    ``kind`` is a key of :data:`repro.sim.generators.TOPOLOGIES`:
    ``"chain"``, ``"grid"``, ``"random_disk"`` or ``"testbed"``.  This
    class is the parameter vocabulary and its defaults; what a kind
    builds, how many nodes that is and which parameters it rejects is
    the kind's table entry.  Generators read the parameter fields
    they care about and ignore the rest:

    Attributes:
        kind: topology generator name.
        num_nodes: node count for chains and random disks.
        rows / cols: grid dimensions (``kind="grid"``).
        spacing_m: inter-node spacing for chains and grids.
        jitter_m: placement jitter for the testbed layout.
        radius_m: disk radius for random disks.
        min_separation_m: minimum pairwise node distance for random disks.
    """

    kind: str = "chain"
    num_nodes: int = 3
    rows: int = 2
    cols: int = 2
    spacing_m: float = 60.0
    jitter_m: float = 6.0
    radius_m: float = 150.0
    min_separation_m: float = 25.0

    def __post_init__(self) -> None:
        _require_key(TOPOLOGIES, self.kind, "TopologySpec.kind")
        _require(self.spacing_m > 0, "spacing_m must be positive")
        _require(self.radius_m > 0, "radius_m must be positive")
        _require(self.min_separation_m >= 0, "min_separation_m must be non-negative")
        problem = self._generator.problem(self)
        _require(not problem, str(problem))

    @property
    def _generator(self) -> TopologyGenerator:
        return TOPOLOGIES[self.kind]

    def build(self, seed: int = 0) -> Positions:
        """Materialize the node id -> (x, y) placement map."""
        return self._generator.build(self, seed)

    def node_count(self) -> int:
        """Node count this topology will produce (without building it)."""
        return self._generator.node_count(self)

    def describe(self) -> str:
        """Kind and size, e.g. ``grid 2x3`` or ``chain 4``."""
        shape = self._generator.shape or self._generator.node_count
        return f"{self.kind} {shape(self)}"


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FlowSpec(_Spec):
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


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec(_GeneratorSpec):
    """A generated flow set: workload generator name plus demand knobs.

    ``generator`` is a key of :data:`repro.sim.generators.WORKLOADS`:
    ``"mixed_tcp_udp"`` or ``"random_pairs"``.  The generator routes its
    demands over ETT paths of the built network and draws all randomness
    from a stream of the scenario seed
    (:func:`repro.sim.generators.scenario_streams`), so the same spec
    always produces the same flows.

    ``rate_bps`` follows :class:`FlowSpec` semantics for the UDP flows a
    generator emits: ``None`` saturates, ``0.0`` starts idle until the
    controller programs the flow, a positive value is a CBR rate.
    """

    generator: str = "mixed_tcp_udp"
    num_flows: int = 4
    max_hops: int = 4
    rate_bps: float | None = None
    tcp_fraction: float = 0.5
    payload_bytes: int = 1470
    mss_bytes: int = 1460

    def __post_init__(self) -> None:
        _require_key(WORKLOADS, self.generator, "WorkloadSpec.generator")
        _require(self.num_flows >= 1, "num_flows must be at least 1")
        _require(self.max_hops >= 1, "max_hops must be at least 1")
        _require(self.rate_bps is None or self.rate_bps >= 0,
                 "rate_bps must be None (backlogged) or non-negative")
        _require(0.0 <= self.tcp_fraction <= 1.0,
                 "tcp_fraction must lie in [0, 1]")
        _require(self.payload_bytes > 0 and self.mss_bytes > 0,
                 "payload_bytes and mss_bytes must be positive")


# ---------------------------------------------------------------------------
# Dynamics: mobility and churn
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MobilitySpec(_GeneratorSpec):
    """Node mobility for a ``generated`` scenario.

    ``model`` is a key of :data:`repro.sim.dynamics.MOBILITY_MODELS`,
    which has one: ``"drift"``, per-epoch Gaussian displacement with
    standard deviation ``drift_sigma_m``, clipped to the initial
    bounding box plus ``area_margin_m``.

    Positions advance in discrete *position epochs* every ``epoch_s``
    seconds of virtual time; each epoch the
    :class:`~repro.sim.dynamics.DynamicsDriver` rebuilds only the power-
    table rows/columns of the nodes that actually moved.  All trajectory
    randomness comes from a model-private ``rng_spawn_key`` stream seeded
    by the scenario ``seed`` (like topology placement), never from the
    simulation streams.
    """

    model: str = "drift"
    epoch_s: float = 1.0
    drift_sigma_m: float = 2.0
    area_margin_m: float = 25.0

    def __post_init__(self) -> None:
        _require_key(MOBILITY_MODELS, self.model, "MobilitySpec.model")
        _require(self.epoch_s > 0, "epoch_s must be positive")
        _require(self.drift_sigma_m >= 0, "drift_sigma_m must be non-negative")
        _require(self.area_margin_m >= 0, "area_margin_m must be non-negative")


@dataclass(frozen=True)
class ChurnSpec(_Spec):
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


# ---------------------------------------------------------------------------
# Probing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProbingSpec(_Spec):
    """Broadcast probing system settings plus the measurement warmup."""

    period_s: float = 0.5
    data_probe_bytes: int = 1500
    warmup_s: float = 45.0

    def __post_init__(self) -> None:
        _require(self.period_s > 0, "period_s must be positive")
        _require(self.data_probe_bytes > 0, "data_probe_bytes must be positive")
        _require(self.warmup_s >= 0, "warmup_s must be non-negative")


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ControllerSpec(_Spec):
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


#: Convenience baseline: no rate control at all (the paper's ``noRC``).
NO_RATE_CONTROL = ControllerSpec(enabled=False)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """A built-in scenario name plus the knobs it reads.

    ``scenario`` is ``"generated"`` or a key of :data:`SCENARIO_PRESETS`
    (:func:`repro.experiment.registry.build_scenario` builds either).
    ``"generated"`` composes a topology generator (``topology``), a
    workload generator (``workload``, or explicit ``flows``) and a radio
    (the default one, or a named ``radio_profile`` resolved at build time
    at ``data_rate_mbps``); ``"chain"``, ``"random_multiflow"`` and
    ``"starvation"`` are presets, each
    standing for a ``generated`` spec (:data:`SCENARIO_PRESETS`).
    ``seed`` fixes topology and shadowing; ``run_seed`` (defaulting to
    ``seed``) re-seeds only traffic/backoff randomness so one physical
    configuration can be re-run independently.  ``rate_mode`` runs every
    link at one rate of :data:`RATE_TABLE` (``"1"``, ``"2"``, ``"5.5"``,
    ``"11"`` Mb/s) or ``"mixed"``.

    A built-in name refuses here every field it does not read that is
    off its default, since such a field would change the digest and not
    the build: ``generated`` takes its demand knobs from
    :class:`WorkloadSpec`, so ``num_flows`` / ``max_hops`` /
    ``transport`` belong to the presets.  ``flows`` and ``workload`` are
    mutually exclusive.
    """

    scenario: str = "chain"
    seed: int = 0
    run_seed: int | None = None
    data_rate_mbps: float = 11.0
    shadowing_sigma_db: float | None = None
    topology: TopologySpec | None = None
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
        _require_key(_UNREAD, self.scenario, "ScenarioSpec.scenario")
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
        _require(not (self.flows and self.workload is not None),
                 "give either explicit flows or a workload generator, not both")
        if self.radio_profile is not None:
            _require_key(RADIO_PROFILES, self.radio_profile, "ScenarioSpec.radio_profile")
        for name, default in _UNREAD[self.scenario]:
            value = getattr(self, name)
            _require(value == default, f"ScenarioSpec.{name} is not read by the "
                     f"{self.scenario!r} scenario; got {value!r}")

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
            parts.append(self.topology.describe())
        if self.workload is not None:
            parts.append(self.workload.generator)
        elif self.flows:
            parts.append(f"{len(self.flows)} flow(s)")
        if self.radio_profile:
            parts.append(self.radio_profile)
        if self.mobility is not None:
            parts.append(f"{self.mobility.model} mobility")
        if self.churn is not None:
            parts.append("churn")
        return f"generated({', '.join(parts)})" if parts else "generated"


# ---------------------------------------------------------------------------
# Presets: the built-in names that stand for a ``generated`` spec
# ---------------------------------------------------------------------------
#: Read by every scenario.
_READ_BY_ALL = frozenset({"scenario", "seed", "run_seed"})
#: Read by presets only: a ``generated`` workload has its own demand knobs.
_PRESET_ONLY = frozenset({"num_flows", "max_hops", "transport"})


def _fixed_rate(spec: ScenarioSpec) -> str:
    """Every link at ``data_rate_mbps``, as ``chain`` and ``starvation``
    have always run."""
    return f"{spec.data_rate_mbps:g}"


def _no_meta(spec: ScenarioSpec, flows: list[Any]) -> dict[str, object]:
    return {}


class ScenarioPreset(NamedTuple):
    """A built-in name that stands for a ``generated`` spec: the
    :class:`ScenarioSpec` fields it reads besides ``seed`` / ``run_seed``
    (every other field must keep its default), the ``generated`` fields
    it fixes or derives, and the ``meta`` its results have always
    carried."""

    reads: frozenset[str]
    expand: Callable[[ScenarioSpec], dict[str, Any]]
    meta: Callable[[ScenarioSpec, list[Any]], dict[str, object]] = _no_meta

    def generated(self, spec: ScenarioSpec) -> ScenarioSpec:
        """The ``generated`` spec ``spec`` stands for."""
        given = {name: getattr(spec, name) for name in (self.reads | _READ_BY_ALL) - _PRESET_ONLY}
        return ScenarioSpec(**{**given, **self.expand(spec), "scenario": "generated"})


def _chain(spec: ScenarioSpec) -> dict[str, Any]:
    topology = spec.topology or TopologySpec()
    flows = spec.flows or (  # one flow over every node, in id order
        FlowSpec(spec.transport, tuple(sorted(topology.build(seed=spec.seed)))),
    )
    return {"topology": topology, "flows": flows, "rate_mode": _fixed_rate(spec)}


def _random_multiflow(spec: ScenarioSpec) -> dict[str, Any]:
    workload = WorkloadSpec(
        generator="random_pairs", num_flows=spec.num_flows, max_hops=spec.max_hops,
        rate_bps=0.0, tcp_fraction=float(spec.transport == "tcp"),
    )
    # The testbed shadows at 6 dB, for link diversity.
    return {"topology": TopologySpec(kind="testbed"), "workload": workload,
            "shadowing_sigma_db": 6.0}


def _starvation(spec: ScenarioSpec) -> dict[str, Any]:
    return {
        "topology": TopologySpec(kind="chain", num_nodes=3, spacing_m=62.0),
        "radio_profile": "hidden_terminal",
        "flows": (FlowSpec("tcp", (0, 1, 2)), FlowSpec("tcp", (1, 2))),
        "rate_mode": _fixed_rate(spec),
    }


#: Every built-in name but ``generated``, as the ``generated`` spec it
#: stands for.
SCENARIO_PRESETS: dict[str, ScenarioPreset] = {
    # N-node chain with explicit flows (deterministic propagation)
    "chain": ScenarioPreset(
        frozenset({"data_rate_mbps", "shadowing_sigma_db", "topology", "flows",
                   "transport"}),
        _chain,
    ),
    # ETT-routed random multi-flow testbed configuration (Sections 4.5/6.3)
    "random_multiflow": ScenarioPreset(
        frozenset({"num_flows", "max_hops", "rate_mode", "transport"}),
        _random_multiflow,
        lambda spec, flows: {
            "scenario_label": f"scenario-{spec.seed}-{spec.rate_mode}-{spec.transport}",
            "routes": [list(flow.path) for flow in flows],
        },
    ),
    # two-flow upstream TCP starvation at a gateway (Figure 13)
    "starvation": ScenarioPreset(
        frozenset({"data_rate_mbps"}),
        _starvation,
        lambda spec, flows: {"two_hop": flows[0].flow_id, "one_hop": flows[1].flow_id},
    ),
}

#: Per built-in name, the ``(field, default)`` pairs it does not read: its
#: keys are every name ``ScenarioSpec.scenario`` accepts.
_UNREAD: dict[str, tuple[tuple[str, Any], ...]] = {
    name: tuple((f.name, f.default) for f in fields(ScenarioSpec)
                if f.name not in reads | _READ_BY_ALL)
    for name, reads in [
        ("generated", frozenset(f.name for f in fields(ScenarioSpec)) - _PRESET_ONLY),
        *((name, preset.reads) for name, preset in SCENARIO_PRESETS.items()),
    ]
}


# ---------------------------------------------------------------------------
# Experiment
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec(_Spec):
    """A complete, runnable experiment.

    Schedule: probing warms up for ``probing.warmup_s`` of virtual time
    (skipped when the controller is disabled — a noRC baseline measures
    raw 802.11, with no probe traffic on the air), then flows start and
    ``cycles`` optimization/measurement rounds run, each
    ``cycle_measure_s`` long with the first ``settle_s`` seconds excluded
    from throughput accounting.

    ``monitors`` names run-time monitors, keys of
    :data:`repro.monitors.flows.MONITORS` (``"pdr"``, ``"throughput"``),
    attached when the flows start; each samples every
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
        for name in self.monitors:
            _require_key(MONITORS, name, "ExperimentSpec.monitors")

    def with_seed(self, seed: int, run_seed: int | None = None) -> "ExperimentSpec":
        """The same experiment on a re-seeded scenario."""
        return replace(self, scenario=self.scenario.with_seed(seed, run_seed))

    def describe(self) -> str:
        controller = (self.controller.utility.describe()
                      if self.controller.enabled else "no rate control")
        return (f"{self.label or self.scenario.describe()}"
                f" [seed={self.scenario.seed}, {controller}, {self.cycles} cycle(s)]")
