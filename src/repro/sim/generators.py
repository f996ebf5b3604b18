"""Composable scenario generators: topology x workload x radio profiles.

The paper's online optimizer is only convincing when exercised across
many interference structures.  This module opens that space by breaking
scenario construction into three orthogonal axes, each one table of
name -> entry:

* **Topology generators** (:data:`TOPOLOGIES`) map parameters plus a
  seed to node positions (:data:`Positions`).  Built-ins are the chain,
  the grid, the random disk and the paper's 18-node testbed.  Each is
  one :class:`TopologyGenerator` record: build, node count, validity.
* **Workload generators** (:data:`WORKLOADS`) map a built
  :class:`MeshNetwork` plus demand parameters to a list of
  :class:`GeneratedFlow`\\ s over ETT-routed paths: mixed TCP/UDP random
  demands, and the rejection-sampled pairs of the Sections 4.5 / 6.3
  configurations.
* **Radio profiles** (:data:`RADIO_PROFILES`) are named radio parameter
  presets (:func:`radio_profile_config`): the reduced-carrier-sense
  ``hidden_terminal`` configuration the Figure 13 starvation scenario is
  built on.

Everything here is deterministic: workload and placement randomness
come from seed-derived RNG streams (:func:`scenario_streams` picks a
scenario's), so the same ``(generator, params, seed)`` triple always
produces the same scenario — which is what lets
the experiment layer (:mod:`repro.experiment.specs`) serialize generator
name + params into a canonical spec dict, content-address it with
``spec_digest``, and replay it bit-identically on any execution backend.

The tables are the single source of truth for generator names: the spec
layer refuses a name that is not a key, listing the keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.engine import named_rng
from repro.net.routing import Router, ett
from repro.phy.radio import RATE_1MBPS, RATE_11MBPS, RadioConfig, rate_from_mbps
from repro.sim.network import MeshNetwork
from repro.sim.topology import (
    chain_topology,
    grid_topology,
    random_disk_topology,
    testbed_positions,
)

Link = tuple[int, int]
Positions = dict[int, tuple[float, float]]

__all__ = [
    "GeneratedFlow",
    "TopologyGenerator",
    "WorkloadContext",
    "workload_rng",
    "scenario_streams",
    "radio_profile_config",
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


#: SNR (dB) at which a link is strong enough for 11 Mb/s: the centre of
#: the jittered threshold the ``mixed`` assignment draws around.
MIXED_RATE_SNR_DB = 24.0


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
            threshold = MIXED_RATE_SNR_DB + float(rng.uniform(-2.0, 2.0))
            rate = RATE_11MBPS if snr >= threshold else RATE_1MBPS
        network.set_link_rate(link, rate)


# ---------------------------------------------------------------------------
# Topology generators
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TopologyGenerator:
    """Everything one topology kind declares, in one place.

    Every callable takes the kind's parameters as attributes of one
    object — in practice the ``TopologySpec``, which owns the parameter
    vocabulary and its defaults; a generator reads what it cares about.
    """

    #: ``(params, seed) -> Positions``.
    build: Callable[[Any, int], Positions]
    #: How many nodes ``build`` would place, without building.
    node_count: Callable[[Any], int]
    #: Why ``params`` are invalid for this kind (``TopologySpec`` raises
    #: it as a ``SpecError`` on construction), or falsy when they are valid.
    problem: Callable[[Any], "str | bool | None"] = lambda params: None
    #: The size as reports print it after the kind name (``2x3``); the
    #: node count when omitted.
    shape: Callable[[Any], str] | None = None


def _chain(t: Any, seed: int) -> Positions:
    """N nodes in a line (classic multi-hop chain)."""
    return chain_topology(t.num_nodes, t.spacing_m)


def _grid(t: Any, seed: int) -> Positions:
    """Rows x cols lattice of nodes."""
    return grid_topology(t.rows, t.cols, t.spacing_m)


def _random_disk(t: Any, seed: int) -> Positions:
    """N nodes placed uniformly in a disk with a minimum separation."""
    return random_disk_topology(
        t.num_nodes, t.radius_m, seed=seed, min_separation_m=t.min_separation_m
    )


def _testbed(t: Any, seed: int) -> Positions:
    """The paper's synthetic 18-node testbed layout."""
    return testbed_positions(seed=seed, jitter_m=t.jitter_m)


#: Every ``TopologySpec.kind``: the spec validates, sizes, labels and
#: builds through its record, so there is no kind-switch to extend.
TOPOLOGIES: dict[str, TopologyGenerator] = {
    "chain": TopologyGenerator(
        _chain,
        node_count=lambda t: t.num_nodes,
        problem=lambda t: t.num_nodes < 2 and "a chain needs at least two nodes",
    ),
    "grid": TopologyGenerator(
        _grid,
        node_count=lambda t: t.rows * t.cols,
        problem=lambda t: (t.rows < 1 or t.cols < 1) and "grid dimensions must be positive",
        shape=lambda t: f"{t.rows}x{t.cols}",
    ),
    "random_disk": TopologyGenerator(
        _random_disk,
        node_count=lambda t: t.num_nodes,
        problem=lambda t: t.num_nodes < 2 and "a random disk needs at least two nodes",
    ),
    "testbed": TopologyGenerator(_testbed, node_count=lambda t: 18),
}


# ---------------------------------------------------------------------------
# Radio profiles
# ---------------------------------------------------------------------------
#: Named radio parameter presets.  Values override :class:`RadioConfig`
#: defaults; the data/basic modulation rates are supplied by the caller
#: (scenarios carry their own ``data_rate_mbps``).
RADIO_PROFILES: dict[str, dict[str, float]] = {
    # Reduced carrier-sense sensitivity: with the default -91 dBm CS
    # threshold every node of a short chain senses every other, which
    # masks hidden-terminal collisions.  Raising the threshold (a knob
    # real drivers expose) shrinks the carrier-sense range below two
    # hops — the data/ACK collision pattern of Shi et al. that the
    # Figure 13 TCP starvation scenario studies.
    "hidden_terminal": {"cs_threshold_dbm": -74.0},
}


def radio_profile_config(
    name: str, data_rate_mbps: float = 11.0, basic_rate_mbps: float = 1.0
) -> RadioConfig:
    """A ready :class:`RadioConfig` for a named profile at the given rates."""
    return RadioConfig(
        data_rate=rate_from_mbps(data_rate_mbps),
        basic_rate=rate_from_mbps(basic_rate_mbps),
        **RADIO_PROFILES[name],
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
    rate_bps: float | None
    payload_bytes: int
    mss_bytes: int


@dataclass
class WorkloadContext:
    """Everything a workload builder needs: the network, ETT routes and a
    generator-private RNG stream, plus the demand parameters (a
    :class:`repro.experiment.specs.WorkloadSpec`'s ``params()``, which
    holds their defaults)."""

    network: MeshNetwork
    router: Router
    rng: np.random.Generator
    num_flows: int
    max_hops: int
    rate_bps: float | None
    tcp_fraction: float
    payload_bytes: int
    mss_bytes: int

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

    def sample_demands(self) -> list[tuple[int, int, list[int]]]:
        """``num_flows`` routable demands sampled uniformly without
        replacement (all of them when fewer exist), in candidate order,
        so selection is deterministic given the RNG stream."""
        candidates = self.routable_demands()
        if not candidates:
            raise RuntimeError(
                "no routable demands: every candidate route exceeds "
                f"max_hops={self.max_hops} or has no usable links — "
                "if the topology is sparse (wide random disk), shrink the "
                "geometry, drop data_rate_mbps to 1, or raise max_hops"
            )
        if len(candidates) <= self.num_flows:
            return candidates
        chosen = self.rng.choice(len(candidates), size=self.num_flows, replace=False)
        return [candidates[index] for index in sorted(int(index) for index in chosen)]

    def flow(
        self, transport: str, path: list[int], rate_bps: float | None = None
    ) -> GeneratedFlow:
        """A flow over ``path`` with this workload's packet sizes."""
        return GeneratedFlow(
            transport, tuple(path), rate_bps, self.payload_bytes, self.mss_bytes
        )

    def generate(self, generator: str) -> list[GeneratedFlow]:
        """The flows the workload ``generator`` draws here."""
        flows = WORKLOADS[generator](self)
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


def _mixed_tcp_udp(ctx: WorkloadContext) -> list[GeneratedFlow]:
    """Per-flow coin flip between TCP bulk and UDP at ``tcp_fraction``."""
    flows: list[GeneratedFlow] = []
    for _, _, path in ctx.sample_demands():
        if ctx.rng.uniform() < ctx.tcp_fraction:
            flows.append(ctx.flow("tcp", path))
        else:
            flows.append(ctx.flow("udp", path, ctx.rate_bps))
    return flows


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


#: Every ``WorkloadSpec.generator``.
WORKLOADS: dict[str, Callable[[WorkloadContext], list[GeneratedFlow]]] = {
    "mixed_tcp_udp": _mixed_tcp_udp,
    "random_pairs": _random_pairs,
}
