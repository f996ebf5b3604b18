"""Property tests for the medium's incremental bookkeeping.

The medium keeps three pieces of state incrementally instead of
recomputing them per event: per-node sensed energy (updated by row
add/remove as transmissions start and stop), per-reception interference
(``cur_interference_mw``), and the precomputed pairwise power tables.
These properties pin that state to its definition, read through the
medium's public readers:

* after an arbitrary random interleaving of overlapping transmissions,
  every node's incrementally-maintained sensed energy equals the
  from-scratch sum over currently ongoing transmitters — whether or not
  the node has a MAC registered — and every live reception's current
  interference equals the from-scratch sum over the other ongoing
  transmitters;
* the busy/idle state reported to the registered MACs equals the
  carrier-sense definition recomputed from scratch;
* the power tables carry exactly (``==``, not approximately) the value
  of the scalar link-budget formula.
"""

from __future__ import annotations

import math
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.engine import Simulator
from repro.mac.frames import Frame, FrameKind
from repro.mac.medium import WirelessMedium
from repro.phy.propagation import dbm_to_mw
from repro.phy.radio import frame_airtime, rate_from_mbps
from repro.sim import no_shadowing_propagation

_RATE = rate_from_mbps(11)


class _RecordingMac:
    """Minimal MacListener: records the busy state the medium reports."""

    def __init__(self) -> None:
        self.busy = False
        self.flips = 0

    def on_medium_busy(self) -> None:
        self.busy = True
        self.flips += 1

    def on_medium_idle(self) -> None:
        self.busy = False
        self.flips += 1

    def on_frame_received(self, frame: Frame, from_id: int) -> None:
        pass

    def on_transmission_end(self, frame: Frame) -> None:
        pass


def _build_medium(
    coords: frozenset[tuple[int, int]], with_mac: frozenset[int] = frozenset()
) -> tuple[Simulator, WirelessMedium, dict[int, _RecordingMac]]:
    """A medium over ``coords``; node ``i`` gets a MAC iff ``i in with_mac``."""
    positions = {
        i: (float(x) * 30.0, float(y) * 30.0) for i, (x, y) in enumerate(sorted(coords))
    }
    sim = Simulator(seed=0)
    medium = WirelessMedium(sim, positions, propagation=no_shadowing_propagation())
    macs: dict[int, _RecordingMac] = {}
    for node in positions:
        if node in with_mac:
            macs[node] = _RecordingMac()
            medium.register_mac(node, macs[node])
    return sim, medium, macs


def _check_invariants(
    medium: WirelessMedium, macs: dict[int, _RecordingMac], failures: list[str]
) -> None:
    """Compare incremental state against from-scratch recomputation."""
    ongoing = list(medium._ongoing.values())
    cs_threshold_mw = dbm_to_mw(medium.radio.cs_threshold_dbm)
    # Sensed energy: the power received from every *other* transmitter
    # currently on the air.  Incremental adds/removes follow a different
    # float summation order than the from-scratch sum, so compare with a
    # tight relative tolerance rather than ``==``.
    for node in medium.positions:
        expected = 0.0
        for t in ongoing:
            if t.tx_id != node:
                expected += medium.rx_power_mw(t.tx_id, node)
        actual = medium.sensed_power_mw(node)
        if actual < 0.0:
            failures.append(f"sensed[{node}] negative: {actual!r}")
        if not math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-18):
            failures.append(f"sensed[{node}]: incremental {actual!r} != sum {expected!r}")
        busy_expected = any(t.tx_id == node for t in ongoing) or actual >= cs_threshold_mw
        if medium.is_busy(node) != busy_expected:
            failures.append(f"is_busy({node}) != carrier-sense definition")
        if node in macs and macs[node].busy != busy_expected:
            failures.append(f"mac[{node}].busy != carrier-sense definition")
    # Live receptions: current interference equals the sum over the
    # *other* ongoing transmitters (a live reception's receiver is never
    # itself transmitting — that would have failed it as half-duplex).
    for t in ongoing:
        for rx_id, reception in t.receptions.items():
            if reception.failure is not None:
                continue
            expected = 0.0
            for other in ongoing:
                if other.tx_id != t.tx_id:
                    expected += medium.rx_power_mw(other.tx_id, rx_id)
            actual = reception.cur_interference_mw
            if not math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-18):
                failures.append(
                    f"interference({t.tx_id}->{rx_id}): {actual!r} != sum {expected!r}"
                )
            if reception.peak_interference_mw < actual - 1e-18:
                failures.append(f"peak < current for {t.tx_id}->{rx_id}")


_coords = st.frozensets(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=6
)
_ops = st.lists(
    st.tuples(
        st.integers(0, 5),  # transmitter pick (mod node count)
        st.floats(0.0, 3e-3, allow_nan=False, allow_infinity=False),  # start gap
        st.sampled_from([40, 200, 1500]),  # frame size on air
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(coords=_coords, ops=_ops, with_mac=st.frozensets(st.integers(0, 5)))
def test_incremental_state_matches_recomputation(
    coords: frozenset[tuple[int, int]], ops, with_mac: frozenset[int]
) -> None:
    """Random overlapping transmissions, MACs on an arbitrary subset of
    the nodes: incremental sensed energy, busy state and per-reception
    interference all equal their from-scratch definitions at every
    event boundary."""
    sim, medium, macs = _build_medium(coords, with_mac)
    ids = sorted(medium.positions)
    n = len(ids)
    failures: list[str] = []
    check = partial(_check_invariants, medium, macs, failures)

    t = 0.0
    next_free = {node: 0.0 for node in ids}
    horizon = 0.0
    for pick, gap, size in ops:
        node = ids[pick % n]
        t += gap
        start = max(t, next_free[node] + 1e-9)
        dst = ids[(pick + 1) % n]
        frame = Frame(kind=FrameKind.DATA, src=node, dst=dst, size_bytes=size, rate=_RATE)
        sim.schedule_at(start, partial(medium.begin_transmission, node, frame))
        airtime = frame_airtime(size, _RATE)
        next_free[node] = start + airtime
        horizon = max(horizon, next_free[node])
        # Probe mid-flight and right after this frame leaves the air.
        sim.schedule_at(start + airtime / 2.0, check)
        sim.schedule_at(next_free[node] + 1e-9, check)

    sim.run_until(horizon + 1e-6)
    check()  # all-idle end state: sensed energy must be back at zero
    assert not failures, "\n".join(failures[:10])
    assert not medium._ongoing


@settings(max_examples=30, deadline=None)
@given(coords=_coords)
def test_power_tables_match_scalar_formula_exactly(
    coords: frozenset[tuple[int, int]]
) -> None:
    """Both tables equal the scalar link-budget formula bit-for-bit
    (``==`` on floats, no tolerance)."""
    _sim, medium, _macs = _build_medium(coords)
    eirp = medium.radio.tx_power_dbm + 2.0 * medium.radio.antenna_gain_dbi
    for a in medium.positions:
        for b in medium.positions:
            dbm = eirp - medium.propagation.path_loss_db(medium.distance(a, b), (a, b))
            assert medium.rx_power_dbm(a, b) == dbm
            assert medium.rx_power_mw(a, b) == dbm_to_mw(dbm)
