"""802.11b/g PHY rates, preamble timing and frame airtime computation.

The paper evaluates its model at the 1 Mb/s (DSSS/BPSK) and 11 Mb/s (CCK)
data rates of an 802.11g radio operating in the 2.4 GHz band with long
preambles and RTS/CTS disabled.  This module encodes those rates, their
receiver sensitivity and required SINR, and provides the airtime of a
frame of a given size at a given rate (PLCP preamble + header + payload).
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: PLCP long preamble duration in seconds (144 bits at 1 Mb/s).
PLCP_PREAMBLE_S = 144e-6
#: PLCP header duration in seconds (48 bits at 1 Mb/s, long preamble format).
PLCP_HEADER_S = 48e-6
#: Total physical-layer overhead per frame for DSSS/CCK long preamble.
PHY_OVERHEAD_S = PLCP_PREAMBLE_S + PLCP_HEADER_S


@dataclass(frozen=True)
class PhyRate:
    """A single 802.11 modulation/data-rate option.

    Attributes:
        bps: data rate in bits per second.
        name: human-readable label, e.g. ``"11Mbps"``.
        min_sinr_db: SINR (dB) required to decode a frame in the presence
            of interference (capture threshold).
        rx_sensitivity_dbm: minimum received signal power (dBm) for the
            frame to be decodable at all in the absence of interference.
        base_ber: residual bit error rate at high SNR.  Links whose SNR
            sits near the sensitivity threshold experience a higher BER
            (see :mod:`repro.phy.error_models`).
    """

    bps: float
    name: str
    min_sinr_db: float
    rx_sensitivity_dbm: float
    base_ber: float = 1e-7


RATE_1MBPS = PhyRate(bps=1e6, name="1Mbps", min_sinr_db=4.0, rx_sensitivity_dbm=-94.0)
RATE_2MBPS = PhyRate(bps=2e6, name="2Mbps", min_sinr_db=6.0, rx_sensitivity_dbm=-91.0)
RATE_5_5MBPS = PhyRate(bps=5.5e6, name="5.5Mbps", min_sinr_db=8.0, rx_sensitivity_dbm=-87.0)
RATE_11MBPS = PhyRate(bps=11e6, name="11Mbps", min_sinr_db=10.0, rx_sensitivity_dbm=-82.0)

#: All supported rates indexed by their nominal bit rate in Mb/s.
RATE_TABLE = {
    1: RATE_1MBPS,
    2: RATE_2MBPS,
    5.5: RATE_5_5MBPS,
    11: RATE_11MBPS,
}


def rate_from_mbps(mbps: float) -> PhyRate:
    """Look up a :class:`PhyRate` by its nominal rate in Mb/s.

    Raises:
        KeyError: if the rate is not one of the supported 802.11b rates.
    """
    if mbps not in RATE_TABLE:
        raise KeyError(
            f"unsupported PHY rate {mbps} Mb/s; supported: {sorted(RATE_TABLE)}"
        )
    return RATE_TABLE[mbps]


def frame_airtime(payload_bytes: int, rate: PhyRate) -> float:
    """Airtime in seconds of a frame carrying ``payload_bytes`` MAC bytes.

    ``payload_bytes`` is the full MAC frame size (MAC header + payload +
    FCS); the PLCP preamble and header are added on top at the 1 Mb/s
    basic rate, matching the long-preamble DSSS/CCK format used by the
    testbed in the paper.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    return PHY_OVERHEAD_S + (payload_bytes * 8) / rate.bps


@dataclass
class RadioConfig:
    """Static radio configuration shared by all nodes of a mesh.

    Attributes:
        tx_power_dbm: transmit power.  The paper fixes 19 dBm for all
            nodes.
        cs_threshold_dbm: energy level above which the medium is sensed
            busy (physical carrier sensing).
        antenna_gain_dbi: omni antenna gain applied at both ends.
        data_rate: default modulation rate for DATA frames.
        basic_rate: rate used for control/broadcast frames (ACK emulation
            probes, 802.11 ACKs).
    """

    tx_power_dbm: float = 19.0
    cs_threshold_dbm: float = -91.0
    antenna_gain_dbi: float = 5.0
    data_rate: PhyRate = field(default_factory=lambda: RATE_11MBPS)
    basic_rate: PhyRate = field(default_factory=lambda: RATE_1MBPS)
