"""Delivery-attempt traces.

A trace is a frame observer on the medium
(:meth:`repro.mac.medium.WirelessMedium.add_frame_observer`): it sees
every delivery attempt at every intended receiver, with its outcome and
loss cause.  Nothing observes by default — a network records only what
something registered to read.
"""

from __future__ import annotations

import hashlib

from repro.mac.frames import Frame
from repro.mac.medium import WirelessMedium
from repro.engine import Simulator


class EventTraceRecorder:
    """Digests every delivery attempt into a per-event trace hash.

    One line is folded into a SHA-256 per frame-delivery attempt:
    virtual timestamp (shortest-roundtrip ``repr``, so the digest is
    sensitive to any bit-level drift in event timing), frame kind,
    directed link, on-air size, retry count and the delivery outcome.
    Because MAC timing, carrier sensing, capture and the RNG draw order
    all feed into these fields, *any* behavioural drift in the engine,
    medium or DCF shows up as a different digest — this is what the
    sim-level goldens under ``tests/sim/golden`` pin.

    Args:
        sim: the simulator driving virtual time.
        medium: the medium whose delivery attempts are recorded.
        keep_lines: also retain the raw trace lines (used by the golden
            ``regenerate.py`` to help diff a drifted trace; costs memory
            proportional to the trace, so off by default).
    """

    def __init__(
        self, sim: Simulator, medium: WirelessMedium, keep_lines: bool = False
    ) -> None:
        self.sim = sim
        self.events = 0
        self.lines: list[str] | None = [] if keep_lines else None
        self._hash = hashlib.sha256()
        medium.add_frame_observer(self._observe)

    def _observe(self, frame: Frame, rx_id: int, success: bool, failure: str | None) -> None:
        line = (
            f"{self.sim.now!r} {frame.kind.value} {frame.src}->{rx_id} "
            f"bytes={frame.size_bytes} retries={frame.retries} "
            f"ok={int(success)} fail={failure or '-'}\n"
        )
        self._hash.update(line.encode("utf-8"))
        self.events += 1
        if self.lines is not None:
            self.lines.append(line)

    @property
    def digest(self) -> str:
        """Hex SHA-256 over every trace line folded in so far."""
        return self._hash.hexdigest()
