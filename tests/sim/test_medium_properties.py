"""Property tests for the medium's carrier sense, interference and power tables.

Carrier sense and per-reception interference are defined by the on-air
set; the pairwise power tables are precomputed.  These properties pin
each to its definition, read through the medium's public readers:

* after an arbitrary random interleaving of overlapping transmissions,
  every node's sensed energy equals (``==``) the start-order sum of the
  begin-time ``mW`` rows of the other transmitters on the air — whether
  or not the node has a MAC registered, and across position epochs that
  land mid-flight — and its busy state, as ``is_busy`` reads it and as
  the MAC was told it, equals the carrier-sense definition on that sum;
* a MAC replaced by ``register_mac`` mid-run hears nothing afterwards,
  and every MAC is told of each flip exactly once;
* every live reception's peak interference equals (``==``) the largest,
  over the on-air sets seen since its frame began, of the start-order
  sum of the other transmitters' begin-time ``mW`` rows at its receiver
  — across position epochs too;
* the power tables carry exactly (``==``, not approximately) the value
  of the scalar link-budget formula, are exactly symmetric, and after
  position epochs equal a fresh medium's at the new positions.
"""

from __future__ import annotations

import math
from functools import partial

from hypothesis import example, given, settings, strategies as st

from repro.engine import Simulator
from repro.mac.frames import Frame, FrameKind
from repro.mac.medium import WirelessMedium
from repro.phy.propagation import LogDistancePathLoss, dbm_to_mw
from repro.phy.radio import frame_airtime, rate_from_mbps
from repro.sim.topology import no_shadowing_propagation

_RATE = rate_from_mbps(11)


class _RecordingMac:
    """Minimal MacListener: records the busy state the medium reports,
    and any call it should not have received."""

    def __init__(self, errors: list[str], busy: bool = False) -> None:
        self.errors = errors
        self.busy = busy
        self.retired = False

    def _flip(self, busy: bool) -> None:
        self._hear("flip")
        if self.busy == busy:
            self.errors.append(f"repeated flip to busy={busy}")
        self.busy = busy

    def _hear(self, what: str) -> None:
        if self.retired:
            self.errors.append(f"a replaced listener heard a {what}")

    def on_medium_busy(self) -> None:
        self._flip(True)

    def on_medium_idle(self) -> None:
        self._flip(False)

    def on_frame_received(self, frame: Frame, from_id: int) -> None:
        self._hear("frame")

    def on_transmission_end(self, frame: Frame) -> None:
        self._hear("transmission end")


def _build_medium(
    coords: frozenset[tuple[int, int]],
    with_mac: frozenset[int] = frozenset(),
    errors: list[str] | None = None,
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
            macs[node] = _RecordingMac(errors if errors is not None else [])
            medium.register_mac(node, macs[node])
    return sim, medium, macs


def _check_invariants(
    medium: WirelessMedium,
    macs: dict[int, _RecordingMac],
    rows: dict[int, dict[int, float]],
    peaks: dict[tuple[int, int], float],
    failures: list[str],
) -> None:
    """Compare the medium's state against from-scratch recomputation.

    ``rows`` maps each transmitter to the ``mW`` row the tables held when
    its latest frame began, in start order of those frames; ``peaks``
    holds each on-air ``(tx, rx)`` pair's largest interference sum so
    far, which this call raises to the on-air set it sees.
    """
    ongoing = list(medium._ongoing.values())
    on_air = _on_air_rows(medium, rows)
    if [tx for tx, _ in on_air] != [t.tx_id for t in ongoing]:
        failures.append("on-air set is not in start order")
    cs_threshold_mw = dbm_to_mw(medium.radio.cs_threshold_dbm)
    # Sensed energy: the begin-time power of every *other* transmitter on
    # the air, summed in start order — exactly, with no residue.
    for node in medium.positions:
        expected = 0.0
        for tx, row in on_air:
            if tx != node:
                expected += row[node]
        actual = medium.sensed_power_mw(node)
        if actual != expected:
            failures.append(f"sensed[{node}]: {actual!r} != start-order sum {expected!r}")
        busy_expected = node in medium._ongoing or expected >= cs_threshold_mw
        if medium.is_busy(node) != busy_expected:
            failures.append(f"is_busy({node}) != carrier-sense definition")
        if node in macs and macs[node].busy != busy_expected:
            failures.append(f"mac[{node}].busy != carrier-sense definition")
    _raise_peaks(medium, rows, peaks)
    for t in ongoing:
        for rx_id, failure in t.failures.items():
            if failure is not None:
                continue
            expected = peaks[t.tx_id, rx_id]
            if t.peaks.get(rx_id, 0.0) != expected:
                failures.append(
                    f"peak({t.tx_id}->{rx_id}): {t.peaks.get(rx_id, 0.0)!r} != {expected!r}"
                )


def _on_air_rows(
    medium: WirelessMedium, rows: dict[int, dict[int, float]]
) -> list[tuple[int, dict[int, float]]]:
    """The begin-time rows of the transmitters on the air, in start order."""
    return [(tx, row) for tx, row in rows.items() if tx in medium._ongoing]


def _raise_peaks(
    medium: WirelessMedium,
    rows: dict[int, dict[int, float]],
    peaks: dict[tuple[int, int], float],
) -> None:
    """Raise every live reception's running maximum to the start-order
    sum, at its receiver, of the *other* on-air transmitters' begin-time
    rows (a live reception's receiver is never itself transmitting —
    that would have failed it as half-duplex)."""
    on_air = _on_air_rows(medium, rows)
    for t in medium._ongoing.values():
        for rx_id, failure in t.failures.items():
            if failure is None:
                interference = 0.0
                for tx, row in on_air:
                    if tx != t.tx_id:
                        interference += row[rx_id]
                pair = (t.tx_id, rx_id)
                peaks[pair] = max(peaks.get(pair, 0.0), interference)


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
_cell = st.tuples(st.integers(0, 8), st.integers(0, 8))
#: Position epochs: (op index whose frame is mid-flight, node pick, new grid cell).
_moves = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5), _cell), max_size=4)


def _run(coords, ops, with_mac, swap, moves=()) -> None:
    """Drive ``ops`` (and ``moves``) through a fresh medium, checking the
    invariants mid-flight and after every frame; at op ``swap[0]``'s
    mid-flight, node ``swap[1]``'s listener is replaced."""
    errors: list[str] = []
    sim, medium, macs = _build_medium(coords, with_mac, errors)
    ids = sorted(medium.positions)
    n = len(ids)
    rows: dict[int, dict[int, float]] = {}
    peaks: dict[tuple[int, int], float] = {}
    check = partial(_check_invariants, medium, macs, rows, peaks, errors)

    def begin(node: int, frame: Frame) -> None:
        rows.pop(node, None)
        rows[node] = {b: medium.rx_power_mw(node, b) for b in ids}
        for pair in [pair for pair in peaks if pair[0] == node]:
            del peaks[pair]
        medium.begin_transmission(node, frame)
        _raise_peaks(medium, rows, peaks)

    def replace(node: int) -> None:
        if node in macs:
            macs[node].retired = True
        macs[node] = _RecordingMac(errors, busy=medium.is_busy(node))
        medium.register_mac(node, macs[node])

    t = 0.0
    next_free = {node: 0.0 for node in ids}
    mid_flight = []
    horizon = 0.0
    for pick, gap, size in ops:
        node = ids[pick % n]
        t += gap
        start = max(t, next_free[node] + 1e-9)
        dst = ids[(pick + 1) % n]
        frame = Frame(kind=FrameKind.DATA, src=node, dst=dst, size_bytes=size, rate=_RATE)
        sim.schedule_at(start, partial(begin, node, frame))
        airtime = frame_airtime(size, _RATE)
        next_free[node] = start + airtime
        horizon = max(horizon, next_free[node])
        mid_flight.append(start + airtime / 3.0)
        # Probe mid-flight and right after this frame leaves the air.
        sim.schedule_at(start + airtime / 2.0, check)
        sim.schedule_at(next_free[node] + 1e-9, check)
    for index, pick, (x, y) in moves:
        move = partial(medium.update_positions, {ids[pick % n]: (x * 30.0, y * 30.0)})
        sim.schedule_at(mid_flight[index % len(mid_flight)], move)
    sim.schedule_at(mid_flight[swap[0] % len(mid_flight)], partial(replace, ids[swap[1] % n]))

    sim.run_until(horizon + 1e-6)
    check()  # all-idle end state: sensed energy must be back at zero
    assert not errors, "\n".join(errors[:10])
    assert not medium._ongoing


_swap = st.tuples(st.integers(0, 11), st.integers(0, 5))


@settings(max_examples=30, deadline=None)
@given(coords=_coords, ops=_ops, with_mac=st.frozensets(st.integers(0, 5)), swap=_swap)
# Node 1 hears 0's frame under 2, then under 2 and 3; 2 leaves the air
# and 4 joins: a running sum that takes 2 out again is an ulp off the
# start-order sum of 3 and 4.
@example(
    coords=frozenset({(4, 0), (5, 3), (5, 6), (7, 8), (8, 7)}),
    ops=[(0, 0.0, 1500), (2, 1e-5, 40), (3, 1e-5, 1500), (4, 3e-4, 40), (2, 1e-5, 40)],
    with_mac=frozenset(),
    swap=(0, 0),
)
def test_incremental_state_matches_recomputation(
    coords: frozenset[tuple[int, int]], ops, with_mac: frozenset[int], swap
) -> None:
    """Random overlapping transmissions, MACs on an arbitrary subset of
    the nodes, one listener replaced mid-run: sensed energy, busy state
    and per-reception peak interference all equal their from-scratch
    definitions at every begin and check."""
    _run(coords, ops, with_mac, swap)


@settings(max_examples=30, deadline=None)
@given(
    coords=_coords, ops=_ops, with_mac=st.frozensets(st.integers(0, 5)), swap=_swap, moves=_moves
)
# Node 0's frame begins, then node 0 moves; 1's second frame (to 2) begins
# under 0's, and 2 must hear 0 through 0's row from before the move.
@example(
    coords=frozenset({(0, 0), (0, 1), (1, 0)}),
    ops=[(1, 0.0, 40), (0, 6.593399832976556e-05, 40), (1, 0.0, 40)],
    with_mac=frozenset(),
    swap=(0, 0),
    moves=[(0, 0, (0, 1))],
)
def test_carrier_sense_matches_its_definition_across_epochs(
    coords: frozenset[tuple[int, int]], ops, with_mac: frozenset[int], swap, moves
) -> None:
    """As above, with position epochs landing while frames are on the
    air: a frame from before an epoch keeps its begin-time row in every
    node's sensed energy and every reception's interference, and the
    edges it takes part in are computed, not looked up from before the
    epoch."""
    _run(coords, ops, with_mac, swap, moves)


@settings(max_examples=30, deadline=None)
@given(
    coords=_coords,
    shadowed=st.booleans(),
    moves=st.lists(st.tuples(st.integers(0, 5), _cell), max_size=4),
)
def test_power_tables_match_scalar_formula_exactly(
    coords: frozenset[tuple[int, int]], shadowed: bool, moves
) -> None:
    """After random position epochs, both tables equal the scalar
    link-budget formula and a fresh medium's tables at the moved
    positions bit-for-bit (``==`` on floats, no tolerance), and are
    exactly symmetric."""

    def propagation():
        return LogDistancePathLoss(seed=7) if shadowed else no_shadowing_propagation()

    positions = {
        i: (float(x) * 30.0, float(y) * 30.0) for i, (x, y) in enumerate(sorted(coords))
    }
    medium = WirelessMedium(Simulator(seed=0), positions, propagation=propagation())
    ids = sorted(positions)
    for pick, (x, y) in moves:
        medium.update_positions({ids[pick % len(ids)]: (x * 30.0, y * 30.0)})
    fresh = WirelessMedium(Simulator(seed=0), medium.positions, propagation=propagation())
    eirp = medium.radio.tx_power_dbm + 2.0 * medium.radio.antenna_gain_dbi
    for a in ids:
        for b in ids:
            dbm = eirp - medium.propagation.path_loss_db(medium.distance(a, b), (a, b))
            assert medium.rx_power_dbm(a, b) == dbm == fresh.rx_power_dbm(a, b)
            assert medium.rx_power_mw(a, b) == dbm_to_mw(dbm) == fresh.rx_power_mw(a, b)
            assert medium.rx_power_dbm(a, b) == medium.rx_power_dbm(b, a)
            assert medium.rx_power_mw(a, b) == medium.rx_power_mw(b, a)


def test_an_edge_summed_through_a_pre_epoch_row_is_not_memoised():
    """Node 2 senses each of nodes 0 and 1 below the CS threshold but
    both together above it — after an epoch moves it closer while 0's
    frame is on the air.  The edge where 1 joins that old frame sums
    0's old row (node 2 stays idle); the same on-air set after the
    epoch, from the same busy set, must turn node 2 busy."""
    sim = Simulator(seed=0)
    propagation = no_shadowing_propagation()
    positions = {0: (-1.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1e4)}
    medium = WirelessMedium(sim, positions, propagation=propagation)
    threshold = dbm_to_mw(medium.radio.cs_threshold_dbm)
    eirp_dbm = medium.radio.tx_power_dbm + 2.0 * medium.radio.antenna_gain_dbi

    def at_power(share: float) -> dict[int, tuple[float, float]]:
        """Node 2 where it receives ``share`` of the threshold from 0 and 1."""
        near, far = 1.0, 1e4  # received power falls with distance
        for _ in range(100):
            mid = (near + far) / 2.0
            mw = dbm_to_mw(eirp_dbm - propagation.path_loss_db(mid, (0, 2)))
            near, far = (mid, far) if mw > share * threshold else (near, mid)
        return {2: (0.0, (near * near - 1.0) ** 0.5)}

    frame = partial(Frame, FrameKind.DATA, size_bytes=1500, rate=_RATE)
    seen: list[tuple[float, bool]] = []

    def observe() -> None:
        seen.append((medium.sensed_power_mw(2) / threshold, medium.is_busy(2)))

    medium.update_positions(at_power(0.1))
    sim.schedule_at(0.0, partial(medium.begin_transmission, 0, frame(src=0, dst=1)))
    sim.schedule_at(2e-4, partial(medium.update_positions, at_power(0.7)))
    sim.schedule_at(4e-4, partial(medium.begin_transmission, 1, frame(src=1, dst=0)))
    sim.schedule_at(5e-4, observe)
    sim.schedule_at(5e-3, partial(medium.begin_transmission, 0, frame(src=0, dst=1)))
    sim.schedule_at(5.2e-3, partial(medium.begin_transmission, 1, frame(src=1, dst=0)))
    sim.schedule_at(5.3e-3, observe)
    sim.run_until(1e-2)
    (stale_sum, stale_busy), (fresh_sum, fresh_busy) = seen
    assert math.isclose(stale_sum, 0.8, rel_tol=1e-9) and not stale_busy
    assert math.isclose(fresh_sum, 1.4, rel_tol=1e-9) and fresh_busy


def test_a_reception_after_an_epoch_hears_an_interferer_through_its_begin_time_row():
    """Node 0's frame is on the air when an epoch moves node 0 closer to
    node 3; node 2's frame to 3 then begins.  Its peak interference is
    0's row from 0's begin, not the row the tables now hold."""
    sim = Simulator(seed=0)
    positions = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (200.0, 0.0), 3: (210.0, 0.0)}
    medium = WirelessMedium(sim, positions, propagation=no_shadowing_propagation())
    frame = partial(Frame, FrameKind.DATA, size_bytes=1500, rate=_RATE)
    begin_row = medium.rx_power_mw(0, 3)
    peaks: list[float] = []

    def observe() -> None:
        peaks.append(medium._ongoing[2].peaks.get(3, 0.0))

    sim.schedule_at(0.0, partial(medium.begin_transmission, 0, frame(src=0, dst=1)))
    sim.schedule_at(2e-4, partial(medium.update_positions, {0: (100.0, 0.0)}))
    sim.schedule_at(4e-4, partial(medium.begin_transmission, 2, frame(src=2, dst=3)))
    sim.schedule_at(5e-4, observe)
    sim.run_until(1e-2)
    assert medium.rx_power_mw(0, 3) > 5.0 * begin_row
    assert peaks == [begin_row]
