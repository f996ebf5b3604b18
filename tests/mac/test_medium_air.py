"""One fixed sequence of overlapping frames on the 18-node testbed.

Bursts of overlapping unicast and broadcast frames separated by idle
gaps, with stub listeners on every node; like a saturated cell, the
sequence repeats a few overlap patterns.  Two facts about the medium are
read off it: carrier-sensed energy is exactly ``0.0`` every time the air
clears, and the number of Python calls the medium and the kernel make
for the whole sequence stays under a committed ceiling — a count that,
unlike the wall clock, is the same on every machine.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import partial
from pathlib import Path

import repro
from repro.engine import Simulator
from repro.mac.frames import BROADCAST_ADDR, Frame, FrameKind
from repro.mac import medium as medium_module
from repro.mac.medium import WirelessMedium
from repro.phy.radio import RATE_11MBPS, frame_airtime
from repro.sim import topology

#: Frames per burst, distinct bursts, bursts, and the frame sizes.
BURST = 6
PATTERNS = 4
BURSTS = 24
SIZES = (1500, 200, 40, 1000)


class _StubMac:
    """A listener that logs its carrier-sense flips and tells the test
    when its frame ends."""

    def __init__(self, node: int, flips: list[tuple[int, bool]], on_end) -> None:
        self._node = node
        self._flips = flips
        self._on_end = on_end

    def on_medium_busy(self) -> None:
        self._flips.append((self._node, True))

    def on_medium_idle(self) -> None:
        self._flips.append((self._node, False))

    def on_frame_received(self, frame: Frame, from_id: int) -> None:
        pass

    def on_transmission_end(self, frame: Frame) -> None:
        self._on_end()


def _sequence(
    on_end=lambda: None, flips: list[tuple[int, bool]] | None = None
) -> tuple[Simulator, WirelessMedium]:
    """The medium with every begin of the fixed sequence scheduled;
    ``flips`` collects every carrier-sense notification in order.

    Burst ``b`` starts frame ``k`` from node ``(7 * i) % 18``, ``i =
    BURST * (b % PATTERNS) + k``, every 150 µs, so up to six frames
    overlap; every third frame is a broadcast, the others go to the next
    node.  Bursts are 20 ms apart, which lets the air clear between them.
    """
    sim = Simulator(seed=3)
    positions = topology.testbed_positions(seed=7)
    medium = WirelessMedium(sim, positions)
    nodes = sorted(positions)
    for node in nodes:
        medium.register_mac(node, _StubMac(node, [] if flips is None else flips, on_end))
    for b in range(BURSTS):
        for k in range(BURST):
            i = BURST * (b % PATTERNS) + k
            tx = nodes[(7 * i) % len(nodes)]
            dst = BROADCAST_ADDR if i % 3 == 0 else nodes[(7 * i + 1) % len(nodes)]
            kind = FrameKind.BROADCAST if dst == BROADCAST_ADDR else FrameKind.DATA
            frame = Frame(kind, tx, dst, SIZES[i % len(SIZES)], RATE_11MBPS)
            sim.schedule_at(0.02 * b + 150e-6 * k, partial(medium.begin_transmission, tx, frame))
    return sim, medium


def test_the_sequence_overlaps_and_clears():
    """The fixture does what the tests below rely on: frames overlap
    within a burst, and a burst is over long before the next begins."""
    assert frame_airtime(max(SIZES), RATE_11MBPS) > (BURST - 1) * 150e-6
    assert frame_airtime(max(SIZES), RATE_11MBPS) + BURST * 150e-6 < 0.02
    clears: list[float] = []
    sim, medium = _sequence(lambda: clears.append(sim.now) if not medium._ongoing else None)
    sim.run()
    assert len(clears) == BURSTS
    assert medium.loss_counts["collision"] + medium.loss_counts["half_duplex"] > 0


def test_sensed_energy_is_exactly_zero_when_the_air_clears():
    """No running-sum residue: once the last frame of a burst leaves the
    air, every node senses exactly ``0.0`` mW."""
    residue: list[tuple[float, int, float]] = []

    def check() -> None:
        if not medium._ongoing:
            for node in medium.positions:
                sensed = medium.sensed_power_mw(node)
                if sensed != 0.0:
                    residue.append((sim.now, node, sensed))

    sim, medium = _sequence(check)
    sim.run()
    assert not residue, residue[:5]


def _log_deliveries(sim: Simulator, medium: WirelessMedium) -> list[tuple]:
    """Every delivery attempt, as ``(time, frame fields, rx, success,
    failure)`` — the frame's id counts across runs, so it is left out."""
    log: list[tuple] = []

    def observe(frame: Frame, rx: int, success: bool, failure: str | None) -> None:
        frame_fields = (frame.kind, frame.src, frame.dst, frame.size_bytes)
        log.append((sim.now, frame_fields, rx, success, failure))

    medium.add_frame_observer(observe)
    return log


def test_a_full_carrier_sense_memo_starts_over(monkeypatch):
    """With the memo bounded at a handful of entries it is cleared again
    and again; every node hears the same flips in the same order, and
    every reception ends the same way."""
    unbounded: list[tuple[int, bool]] = []
    sim, medium = _sequence(flips=unbounded)
    unbounded_log = _log_deliveries(sim, medium)
    sim.run()
    unbounded_losses = medium.loss_counts
    assert len(medium._sense_memo) > 8
    monkeypatch.setattr(medium_module, "SENSE_MEMO_ENTRIES", 8)
    bounded: list[tuple[int, bool]] = []
    sim, medium = _sequence(flips=bounded)
    bounded_log = _log_deliveries(sim, medium)
    sizes: list[int] = []
    original = medium._sense_edge

    def edge(key):
        sizes.append(len(medium._sense_memo))
        return original(key)

    medium._sense_edge = edge
    sim.run()
    assert bounded == unbounded and len(unbounded) > 100
    assert max(sizes) == 8
    assert (bounded_log, medium.loss_counts) == (unbounded_log, unbounded_losses)


#: Python calls into ``repro`` for the whole sequence: the kernel's
#: schedules and dispatches, and the medium's begins, finishes and
#: deliveries.  Carrier sense adds one call per memo miss (46 of the
#: 288 edges here) and none per hit; a reception's interference is summed
#: inline.  A per-node loop makes no calls, so this count holds the edge
#: path call-free but cannot see per-node work.
CALL_CEILING = 1747


def test_the_sequence_makes_a_bounded_number_of_python_calls():
    sim, _medium = _sequence()
    package = str(Path(repro.__file__).parent)
    calls: Counter[str] = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert 0 < sum(calls.values()) <= CALL_CEILING, calls.most_common()
