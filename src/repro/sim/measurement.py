"""Two-phase measurement drivers.

These helpers reproduce the measurement methodology of Section 4 of the
paper on top of the simulator:

* phase 1 — each link transmits alone, backlogged, yielding its max UDP
  throughput (primary extreme point) and UDP packet loss rate;
* phase 2 — links transmit simultaneously, backlogged, yielding the
  simultaneous throughputs used by the LIR metric and the three-point
  model; or, alternatively, configured input-rate vectors are applied and
  the resulting output rates are checked for feasibility.

All functions operate on a live :class:`repro.sim.network.MeshNetwork`
and advance its virtual time; successive phases are separated by a drain
gap so queued traffic from one phase does not leak into the next.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import FlowHandle, MeshNetwork


#: Default settle time before a measurement window opens (seconds).
DEFAULT_SETTLE_S = 0.5
#: Default gap between phases, letting queues drain (seconds).
DEFAULT_GAP_S = 0.5


@dataclass
class FlowMeasurement:
    """Result of measuring one UDP flow over a window."""

    flow_id: int
    throughput_bps: float
    sent_packets: int
    received_packets: int

    @property
    def loss_rate(self) -> float:
        """Network-layer (post-MAC-retransmission) packet loss rate."""
        if self.sent_packets == 0:
            return 0.0
        lost = max(0, self.sent_packets - self.received_packets)
        return min(1.0, lost / self.sent_packets)


@dataclass
class PairMeasurement:
    """The full two-phase measurement of a link pair.

    Attributes mirror the paper's notation: ``c11`` and ``c22`` are the
    isolated (primary extreme point) throughputs of links 1 and 2, and
    ``c31``/``c32`` their throughputs when simultaneously backlogged.
    """

    c11: float
    c22: float
    c31: float
    c32: float
    loss1: float = 0.0
    loss2: float = 0.0

    @property
    def lir(self) -> float:
        """Link Interference Ratio (Eq. 5 of the paper)."""
        denom = self.c11 + self.c22
        if denom <= 0:
            return 0.0
        return (self.c31 + self.c32) / denom


def measure_flows(
    network: MeshNetwork,
    flows: list[FlowHandle],
    duration_s: float,
    settle_s: float = DEFAULT_SETTLE_S,
    gap_s: float = DEFAULT_GAP_S,
) -> list[FlowMeasurement]:
    """Run the given flows together and measure each over the window.

    Only the flows passed in are started; they are stopped afterwards and
    a drain gap is simulated before returning.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    for flow in flows:
        flow.start()
    network.run(settle_s)
    start_time = network.now
    sent_before = {f.flow_id: f.source.sent for f in flows}
    recv_before = {f.flow_id: f.sink.delivered for f in flows}
    network.run(duration_s)
    end_time = network.now
    results = []
    for flow in flows:
        results.append(
            FlowMeasurement(
                flow_id=flow.flow_id,
                throughput_bps=flow.throughput_bps(start_time, end_time),
                sent_packets=flow.source.sent - sent_before[flow.flow_id],
                received_packets=flow.sink.delivered - recv_before[flow.flow_id],
            )
        )
    for flow in flows:
        flow.stop()
    network.run(gap_s)
    return results


def measure_isolated(
    network: MeshNetwork,
    flow: FlowHandle,
    duration_s: float,
    settle_s: float = DEFAULT_SETTLE_S,
    gap_s: float = DEFAULT_GAP_S,
) -> FlowMeasurement:
    """Measure the max UDP throughput of one backlogged flow alone."""
    return measure_flows(network, [flow], duration_s, settle_s, gap_s)[0]


def measure_pair(
    network: MeshNetwork,
    flow1: FlowHandle,
    flow2: FlowHandle,
    duration_s: float,
    settle_s: float = DEFAULT_SETTLE_S,
    gap_s: float = DEFAULT_GAP_S,
) -> PairMeasurement:
    """Run the full two-phase link-pair experiment of Section 4.3.1."""
    alone1 = measure_isolated(network, flow1, duration_s, settle_s, gap_s)
    alone2 = measure_isolated(network, flow2, duration_s, settle_s, gap_s)
    together = measure_flows(network, [flow1, flow2], duration_s, settle_s, gap_s)
    return PairMeasurement(
        c11=alone1.throughput_bps,
        c22=alone2.throughput_bps,
        c31=together[0].throughput_bps,
        c32=together[1].throughput_bps,
        loss1=alone1.loss_rate,
        loss2=alone2.loss_rate,
    )


@dataclass
class FeasibilityTestResult:
    """Outcome of applying one input-rate vector to a set of flows."""

    input_rates_bps: list[float]
    achieved_bps: list[float]
    expected_bps: list[float]
    tolerance: float = 0.02

    @property
    def feasible(self) -> bool:
        """True if every flow achieved its expected output rate.

        The paper marks output rates feasible when they are within 2 % of
        ``(1 - p_l) * x_l`` for every link/flow.
        """
        for achieved, expected in zip(self.achieved_bps, self.expected_bps):
            if expected <= 0:
                continue
            if achieved < expected * (1.0 - self.tolerance):
                return False
        return True


def apply_input_rates(
    network: MeshNetwork,
    flows: list[FlowHandle],
    input_rates_bps: list[float],
    loss_rates: list[float] | None = None,
    duration_s: float = 5.0,
    settle_s: float = DEFAULT_SETTLE_S,
    gap_s: float = DEFAULT_GAP_S,
    tolerance: float = 0.02,
) -> FeasibilityTestResult:
    """Apply an input-rate vector and check whether it is feasible.

    Args:
        flows: the flows to drive (CBR mode).
        input_rates_bps: one input rate per flow.
        loss_rates: per-flow end-to-end loss rate ``p`` used to compute
            the expected output ``(1 - p) * x``; defaults to zero loss.
        tolerance: relative shortfall allowed before declaring the vector
            infeasible (the paper uses 2 %).
    """
    if len(flows) != len(input_rates_bps):
        raise ValueError("need exactly one input rate per flow")
    losses = loss_rates or [0.0] * len(flows)
    for flow, rate in zip(flows, input_rates_bps):
        flow.source.set_rate(rate)
    measurements = measure_flows(network, flows, duration_s, settle_s, gap_s)
    achieved = [m.throughput_bps for m in measurements]
    expected = [x * (1.0 - p) for x, p in zip(input_rates_bps, losses)]
    return FeasibilityTestResult(
        input_rates_bps=list(input_rates_bps),
        achieved_bps=achieved,
        expected_bps=expected,
        tolerance=tolerance,
    )
