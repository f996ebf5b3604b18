"""Channel (non-collision) packet error models.

The paper distinguishes two loss processes on a link:

* *collision losses*, caused by overlapping transmissions, which the MAC
  cannot always recover and which the channel-loss estimator of Section
  5.3 must filter out; and
* *channel losses*, caused by marginal links (low SNR, fading), which are
  independent across packets for the majority of links (observation (iii)
  in Section 5.3).

The simulator's medium handles collisions through the SINR capture model;
this module supplies the residual, independent channel error process.
Error probabilities scale with frame length, so ACK-sized probes see a
lower loss rate than DATA-sized probes, exactly as in the testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.phy.radio import PhyRate


class ErrorModel:
    """Interface: per-frame channel error probability for a link."""

    def packet_error_probability(
        self, snr_db: float, rate: PhyRate, frame_bytes: int
    ) -> float:
        raise NotImplementedError


@dataclass
class FixedPacketErrorModel(ErrorModel):
    """A constant per-packet error probability, independent of SNR.

    Useful for unit tests and for constructing links with a prescribed
    channel loss rate (ground truth for the loss-estimator experiments).
    """

    per: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.per <= 1.0:
            raise ValueError("packet error probability must lie in [0, 1]")

    def packet_error_probability(
        self, snr_db: float, rate: PhyRate, frame_bytes: int
    ) -> float:
        return self.per


@dataclass
class SnrThresholdErrorModel(ErrorModel):
    """Hard SNR threshold: perfect above sensitivity, lost below.

    The simplest possible model; used when experiments want to isolate
    collision behaviour from channel noise.
    """

    def packet_error_probability(
        self, snr_db: float, rate: PhyRate, frame_bytes: int
    ) -> float:
        required = rate.min_sinr_db
        return 0.0 if snr_db >= required else 1.0


@dataclass
class BerPacketErrorModel(ErrorModel):
    """Smooth BER-derived packet error model.

    The bit error rate decays exponentially with the SNR margin above the
    modulation's requirement, floored at the rate's residual BER:

    ``BER(snr) = 0.5 * exp(-k * (snr - snr_req))`` clipped to
    ``[base_ber, 0.5]``, and ``PER = 1 - (1 - BER)^(8 * bytes)``.

    This produces the qualitative behaviour the paper relies on: strong
    links are essentially loss free, marginal links have channel loss
    rates anywhere between a few percent and tens of percent, and longer
    frames lose more often than short ones.  The default decay gives the
    steep PER-vs-SNR transition (a few dB wide) typical of DSSS/CCK
    receivers, so interference more than ~10-15 dB below the signal does
    not corrupt frames.
    """

    decay_per_db: float = 2.2
    min_ber: float = 1e-8
    max_ber: float = 0.5
    reference_snr_offset_db: float = 0.0

    def bit_error_rate(self, snr_db: float, rate: PhyRate) -> float:
        """Bit error rate at the given SNR for the given modulation."""
        margin = snr_db - (rate.min_sinr_db + self.reference_snr_offset_db)
        ber = 0.5 * math.exp(-self.decay_per_db * margin)
        return min(self.max_ber, max(self.min_ber, max(ber, rate.base_ber)))

    def packet_error_probability(
        self, snr_db: float, rate: PhyRate, frame_bytes: int
    ) -> float:
        ber = self.bit_error_rate(snr_db, rate)
        bits = 8 * max(frame_bytes, 1)
        if ber >= self.max_ber:
            per = 1.0
        else:
            per = 1.0 - (1.0 - ber) ** bits
        return min(1.0, max(0.0, per))
