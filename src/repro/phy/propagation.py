"""Radio propagation models.

The testbed of the paper mixes indoor and outdoor links across a parking
lot and three office buildings, producing "a rich variety of wireless
conditions".  We emulate that variety with a log-distance path-loss model
plus a deterministic, per-link log-normal shadowing term: each unordered
node pair receives a fixed shadowing offset drawn from a seeded RNG, so
link qualities are heterogeneous yet reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level from dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level from milliwatts to dBm.

    Zero or negative powers map to ``-inf`` dBm rather than raising, so
    that "no signal" propagates naturally through power sums.
    """
    if mw <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(mw)


class PropagationModel:
    """Interface for propagation models.

    A propagation model maps (tx position, rx position, link key) to a
    path loss in dB.  Implementations must be deterministic: the same
    inputs always yield the same loss, which keeps simulations
    reproducible and lets the medium cache per-link received powers.
    """

    def path_loss_db(self, distance_m: float, link_key: tuple[int, int] | None = None) -> float:
        """Path loss (dB) over ``distance_m`` on the link ``link_key``.

        Reciprocal: ``(tx, rx)`` and ``(rx, tx)`` give the same loss bit
        for bit, which lets the medium fill both entries of a pair's
        power tables from one call.
        """
        raise NotImplementedError


@dataclass
class LogDistancePathLoss(PropagationModel):
    """Log-distance path loss with deterministic per-link shadowing.

    ``PL(d) = PL(d0) + 10 n log10(d / d0) + X_link`` where ``X_link`` is a
    zero-mean Gaussian offset (std ``shadowing_sigma_db``) drawn once per
    unordered link from a seeded RNG.  Symmetric by construction, which
    matches the paper's use of bidirectional broadcast probing.

    Mobility semantics: the shadowing offset is keyed by the node *pair*,
    not by position, so when a position epoch moves nodes (see
    :class:`repro.sim.dynamics.DynamicsDriver`) only the distance term of
    the loss changes — the per-pair offset stays the constant drawn at
    first use.  That keeps incremental power-table rebuilds a pure
    function of (pair, distance), with no hidden draw order: recomputing
    a row mid-run yields the same loss a fresh medium at the new
    positions would compute.
    """

    exponent: float = 3.3
    reference_distance_m: float = 1.0
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 6.0
    seed: int = 1
    min_distance_m: float = 1.0
    _shadowing_cache: dict[tuple[int, int], float] = field(default_factory=dict, repr=False)

    def _shadowing_db(self, link_key: tuple[int, int] | None) -> float:
        if link_key is None or self.shadowing_sigma_db <= 0.0:
            return 0.0
        key = (min(link_key), max(link_key))
        if key not in self._shadowing_cache:
            rng = np.random.default_rng((self.seed, key[0], key[1]))
            self._shadowing_cache[key] = float(rng.normal(0.0, self.shadowing_sigma_db))
        return self._shadowing_cache[key]

    def path_loss_db(self, distance_m: float, link_key: tuple[int, int] | None = None) -> float:
        d = max(distance_m, self.min_distance_m)
        loss = self.reference_loss_db + 10.0 * self.exponent * math.log10(
            d / self.reference_distance_m
        )
        return loss + self._shadowing_db(link_key)
