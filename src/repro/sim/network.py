"""MeshNetwork: the top-level simulation assembly.

A :class:`MeshNetwork` wires together the simulator kernel, the wireless
medium, one :class:`repro.net.node.MeshNode` per node, and convenience
constructors for flows, probing and routing.  Experiments and the online
controller only ever talk to this object.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import ProbeWindow
from repro.core.rate_control import tcp_ack_airtime_factor
from repro.mac.constants import DEFAULT_MAC_CONFIG, MacConfig
from repro.mac.medium import WirelessMedium
from repro.net.node import MeshNode
from repro.net.probing import ProbingSystem
from repro.phy.error_models import BerPacketErrorModel, ErrorModel
from repro.phy.propagation import LogDistancePathLoss, PropagationModel
from repro.phy.radio import PhyRate, RadioConfig, rate_from_mbps
from repro.phy.sinr import CaptureModel
from repro.engine import Simulator
from repro.transport.tcp import TcpFlow, make_tcp_flow
from repro.transport.udp import UdpSink, UdpSource


Link = tuple[int, int]


@dataclass
class UdpFlowHandle:
    """A configured UDP flow: source, sink and its route."""

    flow_id: int
    source: UdpSource
    sink: UdpSink
    path: list[int]

    @property
    def links(self) -> list[Link]:
        return list(zip(self.path[:-1], self.path[1:]))

    def start(self) -> None:
        self.source.start()

    def stop(self) -> None:
        self.source.stop()

    def limit_rate(self, input_bps: float) -> None:
        """Drive the source as CBR at a decided input rate (§6.2)."""
        self.source.set_rate(input_bps)

    def throughput_bps(self, start: float, end: float) -> float:
        return self.sink.throughput_bps(start, end)


@dataclass
class TcpFlowHandle:
    """A configured TCP flow and its route."""

    flow_id: int
    flow: TcpFlow
    path: list[int]

    @property
    def links(self) -> list[Link]:
        return list(zip(self.path[:-1], self.path[1:]))

    def start(self) -> None:
        self.flow.start()

    def stop(self) -> None:
        self.flow.stop()

    def limit_rate(self, input_bps: float) -> None:
        """Cap the sender's token bucket at a decided input rate, scaled
        down to leave the reverse ACKs airtime (§6.2); the bucket is
        created once and re-rated in place after."""
        self.flow.source.set_rate_limit(input_bps * tcp_ack_airtime_factor())

    def throughput_bps(self, start: float, end: float) -> float:
        return self.flow.goodput_bps(start, end)


class MeshNetwork:
    """A simulated 802.11 mesh network.

    Args:
        positions: node id -> (x, y) coordinates in metres.
        seed: master RNG seed for the whole simulation.
        radio: radio configuration shared by all nodes.
        propagation: path-loss model (defaults to log-distance with
            per-link shadowing).
        error_model: residual channel error model.
        capture: SINR capture model.
        mac_config: DCF parameters.
        data_rate_mbps: default modulation for DATA frames (1 or 11).
        link_error_override: optional map of per-directed-link packet
            error probabilities (for a 1500-byte frame) that overrides
            the SNR-derived channel error rate.
    """

    def __init__(
        self,
        positions: dict[int, tuple[float, float]],
        seed: int = 0,
        radio: RadioConfig | None = None,
        propagation: PropagationModel | None = None,
        error_model: ErrorModel | None = None,
        capture: CaptureModel | None = None,
        mac_config: MacConfig = DEFAULT_MAC_CONFIG,
        data_rate_mbps: float = 11,
        link_error_override: dict[Link, float] | None = None,
    ) -> None:
        self.positions = dict(positions)
        self.sim = Simulator(seed=seed)
        default_rate = rate_from_mbps(data_rate_mbps)
        self.radio = radio or RadioConfig(data_rate=default_rate)
        self.medium = WirelessMedium(
            self.sim,
            positions,
            radio=self.radio,
            propagation=propagation or LogDistancePathLoss(seed=seed),
            error_model=error_model or BerPacketErrorModel(),
            capture=capture or CaptureModel(),
            link_error_override=link_error_override,
        )
        self.mac_config = mac_config
        self.nodes: dict[int, MeshNode] = {
            node_id: MeshNode(
                node_id,
                self.sim,
                self.medium,
                mac_config=mac_config,
                data_rate=default_rate,
            )
            for node_id in positions
        }
        self.udp_flows: dict[int, UdpFlowHandle] = {}
        self.tcp_flows: dict[int, TcpFlowHandle] = {}
        self._next_flow_id = 0
        self.probing: ProbingSystem | None = None
        self._closed = False

    # ---------------------------------------------------------------- helpers
    def node(self, node_id: int) -> MeshNode:
        return self.nodes[node_id]

    @property
    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def allocate_flow_id(self) -> int:
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        if self._closed:
            raise RuntimeError("the network is closed")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.sim.run_until(self.sim.now + duration)

    @property
    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:
        """End the network's life (idempotent).

        The assembly is cyclic by construction — queued events and
        registered handlers point back at their owners — so dropping
        the last reference to a network that ran frees nothing until a
        cyclic collection.  ``close`` walks what the network owns,
        top-down, and each layer cuts its own such references;
        afterwards reference counting frees the whole graph as soon as
        the caller lets go.  Counters, traces and sink logs stay
        readable; :meth:`run` raises.
        """
        if self._closed:
            return
        self._closed = True
        for udp in self.udp_flows.values():
            udp.stop()
        for tcp in self.tcp_flows.values():
            tcp.stop()
        for node in self.nodes.values():
            node.close()
        self.medium.close()
        self.sim.close()

    # --------------------------------------------------------------- dynamics
    def update_positions(self, moved: dict[int, tuple[float, float]]) -> None:
        """Move nodes (a position epoch): the medium rebuilds only the
        power-table rows/columns of the moved nodes and clears what it
        memoised from the table (see
        :meth:`repro.mac.medium.WirelessMedium.update_positions`)."""
        self.medium.update_positions(moved)
        for node_id, (x, y) in moved.items():
            self.positions[node_id] = (float(x), float(y))

    def fail_node(self, node_id: int) -> None:
        """Take a node down (churn failure).

        The medium marks the radio off — subsequent delivery attempts at
        the node fail with ``"rx_off"`` — and the MAC quiesces
        deterministically (pending events cancelled, queue dropped).
        Routing tables and transport state are left in place: when the
        node revives, established flows resume over the same routes,
        which is the repair behaviour the paper's online loop is
        re-measuring.
        """
        self.medium.set_node_active(node_id, False)
        self.nodes[node_id].mac.quiesce()

    def revive_node(self, node_id: int) -> None:
        """Bring a failed node back (churn rejoin) and re-prime any
        backlogged UDP sources stalled at it."""
        self.medium.set_node_active(node_id, True)
        self.nodes[node_id].mac.revive()
        for handle in self.udp_flows.values():
            if handle.path[0] == node_id:
                handle.source.refresh()

    # ---------------------------------------------------------------- routing
    def install_path(self, path: list[int], bidirectional: bool = True) -> None:
        """Install static next-hop entries along ``path``.

        Forward entries route the final destination; with
        ``bidirectional`` the reverse path is installed as well (needed
        for TCP ACKs and for ACK-probe symmetry).
        """
        if len(path) < 2:
            return
        destination = path[-1]
        for here, nxt in zip(path[:-1], path[1:]):
            self.nodes[here].set_route(destination, nxt)
        if bidirectional:
            origin = path[0]
            reverse = list(reversed(path))
            for here, nxt in zip(reverse[:-1], reverse[1:]):
                self.nodes[here].set_route(origin, nxt)

    def set_link_rate(self, link: Link, rate: PhyRate | float) -> None:
        """Fix the modulation of a directed link (accepts Mb/s or PhyRate)."""
        phy_rate = rate if isinstance(rate, PhyRate) else rate_from_mbps(rate)
        u, v = link
        self.nodes[u].set_link_rate(v, phy_rate)

    def link_rate(self, link: Link) -> PhyRate:
        """Current modulation of a directed link."""
        u, v = link
        return self.nodes[u].link_rates.get(v, self.nodes[u].data_rate)

    # ------------------------------------------------------------------ flows
    def add_udp_flow(
        self,
        path: list[int],
        flow_id: int | None = None,
        payload_bytes: int = 1470,
        rate_bps: float | None = None,
        install_route: bool = True,
    ) -> UdpFlowHandle:
        """Create a UDP flow along ``path`` (source is ``path[0]``)."""
        if len(path) < 2:
            raise ValueError("a flow path needs at least two nodes")
        if flow_id is None:
            flow_id = self.allocate_flow_id()
        if install_route:
            self.install_path(path)
        source = UdpSource(
            self.sim,
            self.nodes[path[0]],
            destination=path[-1],
            flow_id=flow_id,
            payload_bytes=payload_bytes,
            rate_bps=rate_bps,
        )
        sink = UdpSink(self.nodes[path[-1]], flow_id)
        handle = UdpFlowHandle(flow_id=flow_id, source=source, sink=sink, path=list(path))
        self.udp_flows[flow_id] = handle
        return handle

    def add_tcp_flow(
        self,
        path: list[int],
        flow_id: int | None = None,
        mss_bytes: int = 1460,
        install_route: bool = True,
    ) -> TcpFlowHandle:
        """Create a TCP flow along ``path`` (source is ``path[0]``)."""
        if len(path) < 2:
            raise ValueError("a flow path needs at least two nodes")
        if flow_id is None:
            flow_id = self.allocate_flow_id()
        if install_route:
            self.install_path(path, bidirectional=True)
        flow = make_tcp_flow(
            self.sim, self.nodes[path[0]], self.nodes[path[-1]], flow_id, mss_bytes=mss_bytes
        )
        handle = TcpFlowHandle(flow_id=flow_id, flow=flow, path=list(path))
        self.tcp_flows[flow_id] = handle
        return handle

    # ---------------------------------------------------------------- probing
    def enable_probing(
        self,
        period_s: float = 0.5,
        data_probe_bytes: int = 1500,
        start: bool = True,
    ) -> ProbingSystem:
        """Attach (and optionally start) the broadcast probing system."""
        if self.probing is None:
            self.probing = ProbingSystem(
                self.sim,
                self.nodes.values(),
                period_s=period_s,
                data_probe_bytes=data_probe_bytes,
            )
        if start:
            self.probing.start()
        return self.probing

    def probe_window(self, links: list[Link], last_n: int) -> ProbeWindow:
        """The controller's measurement record (§5.2): each link's last
        ``last_n`` DATA probes forward at its rate and ACK probes in
        reverse, read into ``losses`` in one pass (DATA rows first), and
        the ACK loss rate of every ordered node pair."""
        probing = self.probing
        if probing is None:
            raise RuntimeError("probing is not enabled on the network")
        links = list(dict.fromkeys(map(tuple, links)))  # each link once, first use first
        rates = [self.link_rate(link) for link in links]
        streams = [(tx, rx, "data", rate) for (tx, rx), rate in zip(links, rates)]
        streams += [(rx, tx, "ack", None) for tx, rx in links]
        losses, lengths = probing.loss_matrix(streams, last_n)
        ack_loss = probing.loss_table("ack", last_n)
        return ProbeWindow(
            links, rates, losses, lengths, list(probing.nodes), ack_loss, self.mac_config
        )
