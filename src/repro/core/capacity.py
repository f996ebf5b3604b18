"""Link capacity representation (Eq. 6 of the paper).

The max UDP throughput of a link is expressed as a closed-form function
of its *channel* loss rate ``p_l``::

    T(p_l) = P / (t_idle + t_tx)

* ``t_tx`` is the expected busy time per delivered packet: the expected
  number of MAC attempts ``ETX = 1/(1 - p_l)`` times the duration of one
  DATA/ACK exchange at the link's nominal throughput (DIFS + initial
  backoff + DATA + SIFS + ACK, from Jun et al. [19]).
* ``t_idle`` is the *extra* idle time caused by binary exponential
  backoff escalation across the retransmission attempts: summing the
  average backoff of stages ``1 .. floor(ETX)-1`` while the contention
  window keeps doubling, and ``(Wm - 1)/2`` slots per attempt once the
  window has saturated at stage ``m`` (the paper's ``F(a, b)`` terms).

At ``p_l = 0`` the expression reduces exactly to the nominal throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mac.constants import DEFAULT_MAC_CONFIG, MacConfig, UDP_TOTAL_HEADER_BYTES
from repro.mac.nominal import nominal_cycle_breakdown
from repro.phy.radio import PhyRate, RATE_1MBPS


@dataclass(frozen=True)
class CapacityModel:
    """Closed-form max-UDP-throughput model for one link configuration.

    Attributes:
        payload_bytes: UDP payload size ``P``.
        rate: modulation of DATA frames on the link.
        mac: MAC timing parameters.
        header_bytes: header overhead ``H`` (MAC + IP + UDP).
        ack_rate: modulation of 802.11 ACKs.
    """

    payload_bytes: int = 1470
    rate: PhyRate = RATE_1MBPS
    mac: MacConfig = DEFAULT_MAC_CONFIG
    header_bytes: int = UDP_TOTAL_HEADER_BYTES
    ack_rate: PhyRate = RATE_1MBPS

    # ------------------------------------------------------------ components
    def cycle_time_s(self) -> float:
        """Duration of one successful, uncontended DATA/ACK exchange."""
        return nominal_cycle_breakdown(
            self.payload_bytes, self.rate, self.mac, self.header_bytes, self.ack_rate
        ).cycle_s

    # ----------------------------------------------------------------- outputs
    def max_udp_throughput_bps(self, loss_rate: float) -> float:
        """Eq. (6): max UDP throughput of the link at channel loss ``p_l``."""
        p = self._validate_loss(loss_rate)
        if p >= 1.0:
            return 0.0
        return float(max_udp_throughputs_bps(p, self.cycle_time_s(), self.payload_bytes, self.mac))

    def nominal_throughput_bps(self) -> float:
        """Throughput of a loss-free link (equals Jun et al.'s TMT)."""
        return self.max_udp_throughput_bps(0.0)

    @staticmethod
    def _validate_loss(loss_rate: float) -> float:
        if loss_rate < 0.0 or loss_rate > 1.0:
            raise ValueError(f"loss rate must lie in [0, 1], got {loss_rate}")
        return loss_rate


def combine_data_ack_losses(p_data: float, p_ack: float) -> float:
    """Combined link loss rate ``1 - (1 - p_DATA)(1 - p_ACK)``."""
    for p in (p_data, p_ack):
        if p < 0.0 or p > 1.0:
            raise ValueError("loss rates must lie in [0, 1]")
    return 1.0 - (1.0 - p_data) * (1.0 - p_ack)


def max_udp_throughputs_bps(
    loss_rates: np.ndarray | float, cycle_s: np.ndarray | float, payload_bytes: int, mac: MacConfig
) -> np.ndarray:
    """Eq. (6) of many links in one vector pass, from each one's channel
    loss rate in ``[0, 1)`` and ``CapacityModel.cycle_time_s``."""
    etx = 1.0 / (1.0 - np.asarray(loss_rates, dtype=float))
    idle = mac.slot_s * _backoff_slots(etx.astype(int), mac)
    return payload_bytes * 8 / (etx * cycle_s + idle)


def _backoff_slots(attempts: np.ndarray, mac: MacConfig) -> np.ndarray:
    """Average backoff slots over ``attempts`` MAC attempts: the paper's
    ``F(1, attempts - 1)`` (``F(a, b) = sum_{i=a}^{b} (2^i W0 - 1) / 2``)
    while the window doubles, ``(Wm - 1) / 2`` per attempt past stage
    ``m``; summed in whole half-slots, so exactly."""
    m = mac.max_backoff_stage
    doubling = [min(2**stage * mac.w0, mac.wmax) - 1 for stage in range(1, m)]
    half_slots = np.cumsum([0, *doubling])  # [k]: stages 1 .. k
    capped = np.minimum(attempts, m) - 1
    return (half_slots[capped] + np.maximum(attempts - m, 0) * (mac.wmax - 1)) / 2.0
