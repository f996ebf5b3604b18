"""SINR computation and the 802.11 capture model.

Capture is central to the paper's findings: in Information Asymmetry and
Near-Far topologies the two transmitters do not sense each other, their
frames overlap at the receivers, and yet receivers often decode one (or
both) frames because the wanted signal is strong enough relative to the
interference.  That is what pushes the true feasibility region above the
time-sharing line (Figure 5 of the paper).

We model capture with a per-rate SINR threshold: a frame is decodable in
the presence of overlapping transmissions iff its signal power exceeds
noise-plus-peak-interference by the modulation's ``min_sinr_db``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.propagation import dbm_to_mw, mw_to_dbm
from repro.phy.radio import PhyRate

#: Thermal noise floor for a 22 MHz 802.11b/g channel plus a typical
#: receiver noise figure (about -101 dBm + 7 dB NF).
NOISE_FLOOR_DBM = -94.0


@dataclass
class CaptureModel:
    """Decides frame decodability from signal, interference and rate.

    Attributes:
        noise_floor_dbm: thermal noise power.  Fixed at construction:
            the derived linear noise power is cached so the hot
            decodability check does not re-derive dBm→mW per frame.
        sinr_margin_db: extra margin added to each rate's minimum SINR;
            raising it makes capture harder (more collision losses),
            lowering it makes overlapping transmissions survive more
            often.
    """

    noise_floor_dbm: float = NOISE_FLOOR_DBM
    sinr_margin_db: float = 0.0

    def __post_init__(self) -> None:
        # Cached conversions of the noise floor.  ``_noise_round_trip_dbm``
        # is ``mw_to_dbm(dbm_to_mw(noise))`` — NOT the noise floor itself
        # (the round trip is a ULP off) — so the interference-free fast
        # path in :meth:`sinr` returns bit-identical values to the full
        # formula ``signal - mw_to_dbm(noise_mw + interference_mw)`` with
        # ``interference_mw == 0``.
        self._noise_mw = dbm_to_mw(self.noise_floor_dbm)
        self._noise_round_trip_dbm = mw_to_dbm(self._noise_mw)

    def decodable(
        self,
        signal_dbm: float,
        interference_mw: float,
        rate: PhyRate,
    ) -> bool:
        """Whether a frame survives the worst overlapping interference."""
        if signal_dbm < rate.rx_sensitivity_dbm:
            return False
        return self.sinr(signal_dbm, interference_mw) >= rate.min_sinr_db + self.sinr_margin_db

    def sinr(self, signal_dbm: float, interference_mw: float) -> float:
        """Signal-to-interference-plus-noise ratio (dB) under this model's
        noise: ``signal_dbm - mw_to_dbm(noise_mw + interference_mw)``."""
        if interference_mw <= 0.0:
            # denom == noise exactly, so skip the log10 — the same float.
            return signal_dbm - self._noise_round_trip_dbm
        return signal_dbm - mw_to_dbm(self._noise_mw + interference_mw)
