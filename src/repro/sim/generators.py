"""Composable scenario generators: topology x workload x radio profiles.

The paper's online optimizer is only convincing when exercised across
many interference structures.  This module opens that space by breaking
scenario construction into three orthogonal, independently registered
axes:

* **Topology generators** map parameters plus a seed to node positions
  (:data:`Positions`).  Built-ins cover the classic mesh layouts —
  chain/line, grid, ring, random-disk, binary-tree, parking-lot — plus
  the paper's 18-node testbed and explicit coordinates.  Each is one
  :func:`register_topology` declaration (:class:`TopologyGenerator`):
  build, node count, validity, description.
* **Workload generators** map a built :class:`MeshNetwork` plus demand
  parameters to a list of :class:`GeneratedFlow`\\ s over ETT-routed
  paths: saturated-UDP random demands, TCP bulk transfers, mixed
  TCP/UDP, gravity-style weighted demands, and the rejection-sampled
  pairs of the Sections 4.5 / 6.3 configurations.  Register new ones
  with :func:`register_workload`.
* **Radio profiles** are named radio parameter presets
  (:func:`radio_profile_config`), including the reduced-carrier-sense
  ``hidden_terminal`` configuration the Figure 13 starvation scenario is
  built on.

Everything here is deterministic: workload and placement randomness
come from seed-derived RNG streams (:func:`scenario_streams` picks a
scenario's), so the same ``(generator, params, seed)`` triple always
produces the same scenario — which is what lets
the experiment layer (:mod:`repro.experiment.specs`) serialize generator
name + params into a canonical spec dict, content-address it with
``spec_digest``, and replay it bit-identically on any execution backend.

The registries (:class:`repro.registry.Registry`) are the single source
of truth for generator names; the spec layer validates against them and
every unknown-name lookup raises listing the registered names.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.engine import named_rng
from repro.net.routing import Router, ett
from repro.phy.radio import RATE_1MBPS, RATE_11MBPS, RadioConfig, rate_from_mbps
from repro.registry import Registry
from repro.sim.network import MeshNetwork
from repro.sim.topology import (
    binary_tree_topology,
    chain_topology,
    grid_topology,
    parking_lot_topology,
    random_disk_topology,
    ring_topology,
    testbed_positions,
)

Link = tuple[int, int]
Positions = dict[int, tuple[float, float]]

__all__ = [
    "GeneratedFlow",
    "TopologyGenerator",
    "WorkloadContext",
    "register_topology",
    "register_workload",
    "topology_names",
    "workload_names",
    "build_topology",
    "generate_workload",
    "workload_rng",
    "scenario_streams",
    "radio_profile_names",
    "radio_profile_params",
    "radio_profile_config",
    "radio_profile_is_adaptive",
    "ADAPTIVE_RADIO_PROFILES",
    "assign_link_rates",
    "ett_link_weights",
    "ground_truth_link_error",
]


# ---------------------------------------------------------------------------
# Shared link-quality primitives (ground truth the builders route over)
# ---------------------------------------------------------------------------
def ground_truth_link_error(
    network: MeshNetwork, link: Link, frame_bytes: int = 1500
) -> float:
    """Channel (non-collision) error probability of a directed link.

    Computed from the medium's error model at the link's SNR — the same
    quantity the link would exhibit with no interfering traffic.
    """
    medium = network.medium
    override = medium.link_error_override.get(link)
    if override is not None:
        return min(1.0, override)
    rate = network.link_rate(link)
    snr = medium.rx_power_dbm(*link) - medium.capture.noise_floor_dbm
    if medium.rx_power_dbm(*link) < rate.rx_sensitivity_dbm:
        return 1.0
    return medium.error_model.packet_error_probability(snr, rate, frame_bytes)


def link_snrs(network: MeshNetwork) -> Iterator[tuple[Link, float]]:
    """Every directed link of the network with its SNR in dB (received
    power over the noise floor), in node-id order."""
    medium = network.medium
    noise_dbm = medium.capture.noise_floor_dbm
    for tx in network.node_ids:
        for rx in network.node_ids:
            if tx != rx:
                yield (tx, rx), medium.rx_power_dbm(tx, rx) - noise_dbm


def ett_link_weights(
    network: MeshNetwork,
    packet_bytes: int = 1500,
    max_loss: float = 0.8,
    min_snr_margin_db: float = 14.0,
) -> dict[Link, float]:
    """ETT weight of every usable directed link in the network.

    Links whose SNR sits less than ``min_snr_margin_db`` above their
    modulation's requirement are excluded: they may look loss-free in
    isolation but any co-channel interference destroys them, so neither a
    real routing metric (whose ETX is measured during operation) nor a
    careful operator would route over them.
    """
    weights: dict[Link, float] = {}
    for link, snr in link_snrs(network):
        rate = network.link_rate(link)
        if snr < rate.min_sinr_db + min_snr_margin_db:
            continue
        p_fwd = ground_truth_link_error(network, link, packet_bytes)
        p_rev = ground_truth_link_error(network, link[::-1], 60)
        if p_fwd > max_loss:
            continue
        weights[link] = ett(p_fwd, p_rev, packet_bytes, rate)
    return weights


#: SNR (dB) at which a link is strong enough for 11 Mb/s: the fixed
#: threshold of rate adaptation, and the centre of the jittered one the
#: static ``mixed`` assignment draws around.
RATE_ADAPTATION_SNR_DB = 24.0


def assign_link_rates(
    network: MeshNetwork, rate_mode: str, rng: np.random.Generator
) -> None:
    """Fix per-link modulations: every link at one rate, or a mix.

    ``rate_mode`` is a rate of :data:`repro.phy.radio.RATE_TABLE` in Mb/s
    (``"1"``, ``"2"``, ``"5.5"``, ``"11"``) for every link, or
    ``"mixed"``: strong links run at 11 Mb/s and marginal links drop to
    1 Mb/s, which is what a rate-adaptation-disabled operator would
    configure by hand (and mirrors the paper's (1, 11) configurations).
    Only ``"mixed"`` draws from ``rng``: one threshold jitter per link.
    """
    fixed = None if rate_mode == "mixed" else rate_from_mbps(float(rate_mode))
    for link, snr in link_snrs(network):
        rate = fixed
        if rate is None:
            threshold = RATE_ADAPTATION_SNR_DB + float(rng.uniform(-2.0, 2.0))
            rate = RATE_11MBPS if snr >= threshold else RATE_1MBPS
        network.set_link_rate(link, rate)


def apply_rate_adaptation(network: MeshNetwork) -> None:
    """Select every directed link's modulation from its current SNR.

    Deliberately RNG-free (a fixed 24 dB threshold, no per-link jitter):
    re-applying it after every position epoch must not consume any
    stream, so rate adaptation composes with mobility without perturbing
    other randomness.
    """
    for link, snr in link_snrs(network):
        network.set_link_rate(
            link, RATE_11MBPS if snr >= RATE_ADAPTATION_SNR_DB else RATE_1MBPS
        )


# ---------------------------------------------------------------------------
# Topology generators
# ---------------------------------------------------------------------------
TopologyBuilder = Callable[[Any, int], Positions]


@dataclass(frozen=True)
class TopologyGenerator:
    """Everything one topology kind declares, in one place.

    Every callable takes the kind's parameters as attributes of one
    object — in practice the ``TopologySpec``, which owns the parameter
    vocabulary and its defaults; a generator reads what it cares about.
    """

    #: ``(params, seed) -> Positions``.
    build: TopologyBuilder
    #: How many nodes ``build`` would place, without building (the sweep
    #: planner orders cells by it).
    node_count: Callable[[Any], int]
    #: Why ``params`` are invalid for this kind (``TopologySpec`` raises
    #: it as a ``SpecError`` on construction), or falsy when they are valid.
    problem: Callable[[Any], "str | bool | None"] = lambda params: None
    #: The size as reports print it after the kind name (``2x3``); the
    #: node count when omitted.
    shape: Callable[[Any], str] | None = None


TOPOLOGIES: Registry[TopologyGenerator] = Registry("topology generator")
WORKLOADS: Registry[Callable[["WorkloadContext"], list["GeneratedFlow"]]] = Registry(
    "workload generator"
)

#: ``@register_workload(name, description=...)`` registers
#: ``builder(ctx: WorkloadContext) -> [GeneratedFlow, ...]``.
register_workload = WORKLOADS.register
topology_names = TOPOLOGIES.names
workload_names = WORKLOADS.names


def register_topology(
    name: str, *, description: str = "", **declaration: Any
) -> Callable[[TopologyBuilder], TopologyBuilder]:
    """Register ``build(params, seed) -> Positions`` under ``name``;
    ``declaration`` is the rest of its :class:`TopologyGenerator`
    (``node_count=``, and ``problem=`` / ``shape=`` where it has them).
    The name is at once a valid ``TopologySpec.kind``: validated, sized
    and built through this."""

    def decorator(build: TopologyBuilder) -> TopologyBuilder:
        TOPOLOGIES.register(
            name, description=description or (build.__doc__ or "").strip()
        )(TopologyGenerator(build, **declaration))
        return build

    return decorator


def build_topology(kind: str, params: Any = None, seed: int = 0) -> Positions:
    """Materialize node positions via the registered generator ``kind``.

    ``params`` is a ``TopologySpec`` or its dict form; a dict must hold
    every field the generator reads — the defaults belong to the spec.
    """
    if isinstance(params, Mapping) or params is None:
        params = SimpleNamespace(**(params or {}))
    return TOPOLOGIES.lookup(kind).build(params, seed)


_CHAIN: dict[str, Any] = dict(
    node_count=lambda t: t.num_nodes,
    problem=lambda t: t.num_nodes < 2 and "a chain needs at least two nodes",
)


@register_topology("line", description="alias of 'chain': N nodes in a line", **_CHAIN)
@register_topology(
    "chain", description="N nodes in a line (classic multi-hop chain)", **_CHAIN
)
def _chain(t: Any, seed: int) -> Positions:
    return chain_topology(t.num_nodes, t.spacing_m)


@register_topology(
    "grid",
    description="rows x cols lattice of nodes",
    node_count=lambda t: t.rows * t.cols,
    problem=lambda t: (t.rows < 1 or t.cols < 1) and "grid dimensions must be positive",
    shape=lambda t: f"{t.rows}x{t.cols}",
)
def _grid(t: Any, seed: int) -> Positions:
    return grid_topology(t.rows, t.cols, t.spacing_m)


@register_topology(
    "ring",
    description="N nodes evenly spaced on a circle",
    node_count=lambda t: t.num_nodes,
    problem=lambda t: t.num_nodes < 3 and "a ring needs at least three nodes",
)
def _ring(t: Any, seed: int) -> Positions:
    return ring_topology(t.num_nodes, t.radius_m)


@register_topology(
    "random_disk",
    description="N nodes placed uniformly in a disk with a minimum separation",
    node_count=lambda t: t.num_nodes,
    problem=lambda t: t.num_nodes < 2 and "a random disk needs at least two nodes",
)
def _random_disk(t: Any, seed: int) -> Positions:
    return random_disk_topology(
        t.num_nodes, t.radius_m, seed=seed, min_separation_m=t.min_separation_m
    )


@register_topology(
    "binary_tree",
    description="complete binary tree aggregating towards a root gateway",
    node_count=lambda t: 2**t.depth - 1,
    problem=lambda t: t.depth < 2 and "a binary tree needs at least two levels",
    shape=lambda t: f"d{t.depth}",
)
def _binary_tree(t: Any, seed: int) -> Positions:
    return binary_tree_topology(t.depth, t.spacing_m)


@register_topology(
    "parking_lot",
    description="backbone chain with one entry stub per junction",
    node_count=lambda t: 2 * t.num_nodes - 1,
    problem=lambda t: t.num_nodes < 2
    and "a parking lot needs a backbone of at least two nodes",
)
def _parking_lot(t: Any, seed: int) -> Positions:
    return parking_lot_topology(t.num_nodes, t.spacing_m, t.stub_m)


@register_topology(
    "testbed",
    description="the paper's synthetic 18-node testbed layout",
    node_count=lambda t: 18,
)
def _testbed(t: Any, seed: int) -> Positions:
    return testbed_positions(seed=seed, jitter_m=t.jitter_m)


@register_topology(
    "positions",
    description="explicit (node, x, y) coordinates",
    node_count=lambda t: len(t.positions),
    problem=lambda t: (
        len(t.positions) < 2 and "explicit topologies need at least two nodes"
    )
    or (
        len({node for node, _, _ in t.positions}) < len(t.positions)
        and "duplicate node ids in positions"
    ),
)
def _positions(t: Any, seed: int) -> Positions:
    # Coordinates may be declared as ints; Positions are float pairs.
    return {node: (float(x), float(y)) for node, x, y in t.positions}


# ---------------------------------------------------------------------------
# Radio profiles
# ---------------------------------------------------------------------------
#: Named radio parameter presets.  Values override :class:`RadioConfig`
#: defaults; the data/basic modulation rates are supplied by the caller
#: (scenarios carry their own ``data_rate_mbps``).
RADIO_PROFILES: dict[str, dict[str, float]] = {
    "default": {},
    # Reduced carrier-sense sensitivity: with the default -91 dBm CS
    # threshold every node of a short chain senses every other, which
    # masks hidden-terminal collisions.  Raising the threshold (a knob
    # real drivers expose) shrinks the carrier-sense range below two
    # hops — the data/ACK collision pattern of Shi et al. that the
    # Figure 13 TCP starvation scenario studies.
    "hidden_terminal": {"cs_threshold_dbm": -74.0},
    # Milder CS reduction used by the Section 4.3 pair pathologies.
    "reduced_cs": {"cs_threshold_dbm": -85.0},
    # Power variants: denser single-cell coverage vs. more spatial reuse.
    "high_power": {"tx_power_dbm": 25.0},
    "low_power": {"tx_power_dbm": 12.0},
    # SNR-threshold auto-rate: radio parameters are the defaults, but the
    # scenario builder assigns per-link modulations from the current SNR
    # (apply_rate_adaptation) and re-assigns them on every position
    # epoch instead of freezing rates at build time.
    "rate_adaptation": {},
}

#: Profiles whose link rates track the channel instead of being frozen at
#: build time.  Their parameter dict must stay empty so
#: :func:`radio_profile_config` still yields a default radio; the
#: behavioural difference lives in the scenario builder, which calls
#: :func:`apply_rate_adaptation` at build and on every position epoch.
ADAPTIVE_RADIO_PROFILES: frozenset[str] = frozenset({"rate_adaptation"})


def radio_profile_is_adaptive(name: str) -> bool:
    """Whether a named profile re-selects link rates as the channel moves."""
    return name in ADAPTIVE_RADIO_PROFILES


def radio_profile_names() -> list[str]:
    """Every named radio profile, sorted."""
    return sorted(RADIO_PROFILES)


def radio_profile_params(name: str) -> dict[str, float]:
    """The parameter overrides of a named radio profile."""
    if name not in RADIO_PROFILES:
        raise KeyError(
            f"unknown radio profile {name!r}; registered: {radio_profile_names()}"
        )
    return dict(RADIO_PROFILES[name])


def radio_profile_config(
    name: str, data_rate_mbps: float = 11.0, basic_rate_mbps: float = 1.0
) -> RadioConfig:
    """A ready :class:`RadioConfig` for a named profile at the given rates."""
    params = radio_profile_params(name)
    return RadioConfig(
        data_rate=rate_from_mbps(data_rate_mbps),
        basic_rate=rate_from_mbps(basic_rate_mbps),
        **params,
    )


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratedFlow:
    """One declarative flow a workload generator produced.

    ``rate_bps`` follows ``MeshNetwork.add_udp_flow`` semantics: ``None``
    is a backlogged/saturating source, ``0.0`` starts idle until the
    controller programs it, and a positive value is a CBR source.  TCP
    flows are window-limited and ignore it.
    """

    transport: str
    path: tuple[int, ...]
    rate_bps: float | None = None
    payload_bytes: int = 1470
    mss_bytes: int = 1460


@dataclass
class WorkloadContext:
    """Everything a workload builder needs: the network, ETT routes and a
    generator-private RNG stream, plus the demand parameters."""

    network: MeshNetwork
    router: Router
    rng: np.random.Generator
    num_flows: int = 4
    max_hops: int = 4
    rate_bps: float | None = None
    tcp_fraction: float = 0.5
    payload_bytes: int = 1470
    mss_bytes: int = 1460
    demand_exponent: float = 1.0
    weight_tail: str = "uniform"
    tail_index: float = 1.5

    def routable_demands(self) -> list[tuple[int, int, list[int]]]:
        """Every ordered ``(src, dst, path)`` whose ETT route fits
        ``max_hops``, in deterministic (sorted node id) order."""
        demands: list[tuple[int, int, list[int]]] = []
        for src in self.network.node_ids:
            for dst in self.network.node_ids:
                if src == dst:
                    continue
                path = self.router.shortest_path(src, dst)
                if path is None:
                    continue
                if 1 <= len(path) - 1 <= self.max_hops:
                    demands.append((src, dst, path))
        return demands

    def sample_demand_indices(
        self,
        weights: "np.ndarray | None" = None,
        candidates: list[tuple[int, int, list[int]]] | None = None,
    ) -> tuple[list[tuple[int, int, list[int]]], list[int]]:
        """All routable demands plus ``num_flows`` sampled indices into
        them (all indices when fewer exist), without replacement and
        optionally biased by per-candidate ``weights``.  The indices are
        returned sorted, so selection order is deterministic given the
        RNG stream.  Generators that need per-demand metadata (gravity
        weights) use the indices; plain generators use
        :meth:`sample_demands`.
        """
        if candidates is None:
            candidates = self.routable_demands()
        if not candidates:
            raise RuntimeError(
                "no routable demands: every candidate route exceeds "
                f"max_hops={self.max_hops} or has no usable links — "
                "if the topology is sparse (large ring radius, wide "
                "random disk), shrink the geometry, drop data_rate_mbps "
                "to 1, or raise max_hops"
            )
        if len(candidates) <= self.num_flows:
            return candidates, list(range(len(candidates)))
        p = None
        if weights is not None:
            total = float(weights.sum())
            if total > 0:
                p = weights / total
        chosen = self.rng.choice(
            len(candidates), size=self.num_flows, replace=False, p=p
        )
        return candidates, sorted(int(index) for index in chosen)

    def sample_demands(self) -> list[tuple[int, int, list[int]]]:
        """``num_flows`` routable demands sampled uniformly without
        replacement (all of them when fewer exist)."""
        candidates, indices = self.sample_demand_indices()
        return [candidates[index] for index in indices]

    def flow(
        self, transport: str, path: list[int], rate_bps: float | None = None
    ) -> GeneratedFlow:
        """A flow over ``path`` with this workload's packet sizes."""
        return GeneratedFlow(
            transport, tuple(path), rate_bps, self.payload_bytes, self.mss_bytes
        )

    def generate(self, generator: str) -> list[GeneratedFlow]:
        """The flows the registered workload ``generator`` draws here."""
        flows = WORKLOADS.lookup(generator)(self)
        if not flows:
            raise RuntimeError(f"workload generator {generator!r} produced no flows")
        return flows


def workload_rng(generator: str, seed: int) -> np.random.Generator:
    """The generator-private stream ``"workload.<generator>"`` of ``seed``
    (:func:`repro.engine.named_rng`): two generators never share draws."""
    return named_rng(seed, f"workload.{generator}")


def scenario_streams(
    generator: str | None, seed: int
) -> tuple[np.random.Generator, np.random.Generator | None]:
    """The streams a scenario draws its ``mixed`` link-rate jitter and
    its workload from, given its workload ``generator`` (``None`` for
    explicit flows): the one place they are picked.

    ``random_pairs`` draws the jitter and then its demands from one
    ``default_rng(seed)``, the discipline its configurations were
    recorded under.  Every other generator keeps the named
    ``generated.link_rates`` and :func:`workload_rng` streams, so no
    generator perturbs another.
    """
    if generator == "random_pairs":
        shared = np.random.default_rng(seed)
        return shared, shared
    workload = None if generator is None else workload_rng(generator, seed)
    return named_rng(seed, "generated.link_rates"), workload


def generate_workload(
    network: MeshNetwork,
    generator: str,
    seed: int = 0,
    router: Router | None = None,
    **params: Any,
) -> list[GeneratedFlow]:
    """Run the registered workload ``generator`` against ``network``.

    ``params`` populate :class:`WorkloadContext` (``num_flows``,
    ``max_hops``, ``rate_bps``, ``tcp_fraction``, ``payload_bytes``,
    ``mss_bytes``, ``demand_exponent``).  ``router`` defaults to an ETT
    router over the network's ground-truth link weights; the draws come
    from the generator's stream of ``seed`` (:func:`scenario_streams`).
    The returned flows are declarative — the caller decides when to add
    them to the network — and deterministic in ``(generator, params, seed)``.
    """
    if router is None:
        router = Router(network.node_ids, ett_link_weights(network))
    _, rng = scenario_streams(generator, seed)
    return WorkloadContext(network, router, rng, **params).generate(generator)


@register_workload(
    "saturated_udp",
    description="backlogged UDP over randomly sampled routable demands",
)
def _saturated_udp(ctx: WorkloadContext) -> list[GeneratedFlow]:
    return [ctx.flow("udp", path, ctx.rate_bps) for _, _, path in ctx.sample_demands()]


@register_workload(
    "tcp_bulk", description="window-limited TCP bulk transfers over routed demands"
)
def _tcp_bulk(ctx: WorkloadContext) -> list[GeneratedFlow]:
    return [ctx.flow("tcp", path) for _, _, path in ctx.sample_demands()]


@register_workload(
    "mixed_tcp_udp",
    description="per-flow coin flip between TCP bulk and UDP at tcp_fraction",
)
def _mixed_tcp_udp(ctx: WorkloadContext) -> list[GeneratedFlow]:
    flows: list[GeneratedFlow] = []
    for _, _, path in ctx.sample_demands():
        if ctx.rng.uniform() < ctx.tcp_fraction:
            flows.append(ctx.flow("tcp", path))
        else:
            flows.append(ctx.flow("udp", path, ctx.rate_bps))
    return flows


@register_workload(
    "gravity",
    description="UDP demands biased by per-node gravity weights, CBR budget split",
)
def _gravity(ctx: WorkloadContext) -> list[GeneratedFlow]:
    """Gravity-style demands: each node draws a weight, a demand (i, j)
    attracts traffic proportionally to ``(w_i * w_j) ** demand_exponent``.
    With a positive ``rate_bps`` the total budget ``rate_bps * num_flows``
    is split across the chosen demands proportionally to their gravity
    weight; with ``rate_bps=None`` sources are saturated and the weights
    only bias *which* demands exist.

    ``weight_tail="pareto"`` swaps the uniform node weights for
    heavy-tailed Lomax draws (``1 + Pareto(tail_index)``), so a handful
    of nodes dominate the traffic matrix as in measured deployments.  The
    uniform branch keeps its historical draw — one ``uniform`` vector of
    ``len(node_ids)`` — bit for bit, so pre-v3 specs replay unchanged."""
    node_ids = ctx.network.node_ids
    if ctx.weight_tail == "pareto":
        draws = ctx.rng.pareto(ctx.tail_index, size=len(node_ids)) + 1.0
    else:
        draws = ctx.rng.uniform(0.1, 1.0, size=len(node_ids))
    node_weight = {node: float(w) for node, w in zip(node_ids, draws)}
    candidates = ctx.routable_demands()
    gravity = np.array(
        [
            (node_weight[src] * node_weight[dst]) ** ctx.demand_exponent
            for src, dst, _ in candidates
        ],
        dtype=float,
    )
    candidates, indices = ctx.sample_demand_indices(
        weights=gravity, candidates=candidates
    )
    chosen = [candidates[i] for i in indices]
    chosen_gravity = gravity[indices]
    rates: list[float | None]
    if ctx.rate_bps is None or ctx.rate_bps <= 0.0:
        rates = [ctx.rate_bps] * len(chosen)
    else:
        budget = ctx.rate_bps * ctx.num_flows
        total_gravity = float(chosen_gravity.sum())
        if total_gravity > 0.0:
            share = chosen_gravity / total_gravity
        else:
            # Every chosen weight underflowed to 0 (an extreme
            # demand_exponent): split the budget evenly rather than
            # handing each flow a NaN rate.
            share = np.full(len(chosen), 1.0 / len(chosen))
        rates = [float(budget * s) for s in share]
    return [ctx.flow("udp", path, rate) for (_, _, path), rate in zip(chosen, rates)]


@register_workload(
    "random_pairs",
    description="rejection-sampled routable node pairs, TCP at tcp_fraction",
)
def _random_pairs(ctx: WorkloadContext) -> list[GeneratedFlow]:
    """The demands of the ETT-routed configurations of Sections 4.5 / 6.3:
    ordered node pairs drawn until ``num_flows`` distinct ones route in
    1..``max_hops`` hops (400 draws at most), then a coin flip per flow
    at ``tcp_fraction`` between TCP and UDP at ``rate_bps``.

    In a scenario the draws continue the stream its ``mixed`` link-rate
    jitter drew from — one ``default_rng(seed)``, see
    :func:`scenario_streams` — so configurations recorded before this
    generator existed replay bit for bit.
    """
    node_ids = ctx.network.node_ids
    demands: list[tuple[int, int]] = []
    paths: list[list[int]] = []
    tries = 0
    while len(demands) < ctx.num_flows and tries < 400:
        tries += 1
        src, dst = (int(x) for x in ctx.rng.choice(node_ids, size=2, replace=False))
        if (src, dst) in demands:
            continue
        path = ctx.router.shortest_path(src, dst)
        if path is None:
            continue
        hops = len(path) - 1
        if 1 <= hops <= ctx.max_hops:
            demands.append((src, dst))
            paths.append(path)
    if len(demands) < ctx.num_flows:
        raise RuntimeError(
            f"could only find {len(demands)} routable demands (wanted {ctx.num_flows})"
        )
    return [
        ctx.flow("tcp", path)
        if ctx.rng.uniform() < ctx.tcp_fraction
        else ctx.flow("udp", path, ctx.rate_bps)
        for path in paths
    ]
