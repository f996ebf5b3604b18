"""Sim-level golden traces: one frozen per-event digest per scenario.

Where the experiment goldens (``tests/experiment/golden``) freeze
end-of-run payloads, these fixtures freeze the simulation at *event
granularity*: an :class:`repro.sim.trace.EventTraceRecorder` folds every
frame-delivery attempt — virtual timestamp at full ``repr`` precision,
frame kind, directed link, size, retries, outcome — into a SHA-256, and
the digest plus event counters are committed as JSON.  A drifted digest
localises a behavioural change to the engine/medium/DCF hot path even
when aggregated throughput happens to land on the same numbers.

This module is the single source of truth for the scenario grid, the
canonical serialization and the regeneration entry point;
``tests/sim/test_trace_goldens.py`` imports it to re-run the same
scenarios and compare byte-for-byte.

When a digest moves **intentionally** (a deliberate semantics change in
the engine, PHY/MAC or transport):

1. regenerate the fixtures::

       PYTHONPATH=src python tests/sim/golden/regenerate.py

2. commit the refreshed JSON together with the change and say in the
   commit message *why* the traces moved (pass ``--dump`` to write the
   raw ``.trace`` lines next to each fixture for diffing two revisions).

Never regenerate to silence a failure you cannot explain — these
fixtures exist precisely so that "the goldens still pass" keeps meaning
"the simulation is byte-identical".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent

if __name__ == "__main__":  # running as a script from a source checkout
    _SRC = GOLDEN_DIR.parents[2] / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.sim import (  # noqa: E402
    EventTraceRecorder,
    MeshNetwork,
    chain_topology,
    information_asymmetry_pair,
    no_shadowing_propagation,
    reduced_carrier_sense_radio,
)


def _chain3() -> MeshNetwork:
    """3-node chain: a forwarded backlogged flow plus reverse traffic.

    Exercises relaying, queue contention at the middle node and ACK
    exchange in both directions on a carrier-sensing line topology.
    """
    net = MeshNetwork(chain_topology(3), seed=11)
    net.add_udp_flow([0, 1, 2]).start()
    net.add_udp_flow([2, 1], rate_bps=400_000.0).start()
    return net


def _drift2() -> MeshNetwork:
    """2-node marginal link under Gaussian drift mobility.

    The 140 m spacing puts the link on the steep part of the PER curve,
    so every position epoch's power-table rebuild visibly changes
    delivery outcomes; freezing this trace pins the incremental
    ``update_positions`` path (row recompute, memo invalidation, snapshot
    balance) byte-for-byte across refactors.
    """
    from repro.sim import DynamicsDriver, build_mobility

    net = MeshNetwork(chain_topology(2, spacing_m=140.0), seed=5)
    net.add_udp_flow([0, 1]).start()
    trajectory = build_mobility(
        "drift",
        net.positions,
        {"drift_sigma_m": 8.0, "area_margin_m": 40.0},
        seed=5,
    )
    DynamicsDriver(net, trajectory=trajectory, epoch_s=0.1).install()
    return net


def _hidden_terminal() -> MeshNetwork:
    """Hidden-terminal (information-asymmetry) pair, shadowing off.

    Transmitters 0 and 2 cannot sense each other while receiver 1 hears
    both — the collision/capture pathology of Section 4.3.  Freezing this
    trace pins each reception's peak interference and the capture/SINR
    path, which the chain scenario barely exercises.
    """
    net = MeshNetwork(
        information_asymmetry_pair().positions,
        seed=7,
        radio=reduced_carrier_sense_radio(),
        propagation=no_shadowing_propagation(),
    )
    net.add_udp_flow([0, 1]).start()
    net.add_udp_flow([2, 3]).start()
    return net


#: Scenario name -> network builder.  Keep each run cheap (well under a
#: second of wall clock): they execute in every tier-1 pass.
GOLDEN_SCENARIOS: dict[str, Callable[[], MeshNetwork]] = {
    "chain3": _chain3,
    "drift2": _drift2,
    "hidden_terminal": _hidden_terminal,
}

#: Simulated horizon per scenario (virtual seconds).
RUN_DURATION_S = 1.0


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def compute(name: str, keep_lines: bool = False) -> tuple[dict[str, object], EventTraceRecorder]:
    """Run scenario ``name`` and return ``(trace record, recorder)``."""
    net = GOLDEN_SCENARIOS[name]()
    recorder = EventTraceRecorder(net.sim, net.medium, keep_lines=keep_lines)
    net.run(RUN_DURATION_S)
    record = {
        "scenario": name,
        "duration_s": RUN_DURATION_S,
        "delivery_events": recorder.events,
        "digest_sha256": recorder.digest,
        # Engine-level counters: catch event-scheduling drift even when
        # no delivery attempt changes.
        "processed_events": net.sim.processed_events,
        "final_time_repr": repr(net.sim.now),
    }
    return record, recorder


def canonical_json(record: dict[str, object]) -> str:
    """The frozen byte representation: keys sorted, trailing newline —
    so fixtures diff cleanly in git."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    dump = "--dump" in argv
    for name in GOLDEN_SCENARIOS:
        record, recorder = compute(name, keep_lines=dump)
        path = golden_path(name)
        text = canonical_json(record)
        changed = not path.exists() or path.read_text(encoding="utf-8") != text
        path.write_text(text, encoding="utf-8")
        if dump:
            (GOLDEN_DIR / f"{name}.trace").write_text(
                "".join(recorder.lines or []), encoding="utf-8"
            )
        print(f"{'rewrote' if changed else 'unchanged'}  {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
