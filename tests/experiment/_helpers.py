"""Helpers shared by the backend/broker/recovery suites.

One cheap reference cell and one canonical byte-comparison, defined
once: the cross-backend and chaos suites all assert *byte* identity, so
what they compare (and the spec they compare on) must never silently
diverge between files.
"""

from __future__ import annotations

import json

from repro.experiment.specs import ControllerSpec, ExperimentSpec, FlowSpec, ScenarioSpec

#: Cheap noRC chain cell: no probing warmup, one second of traffic —
#: fast enough that protocol overhead, not physics, dominates a test.
FAST_SPEC = ExperimentSpec(
    scenario=ScenarioSpec(
        scenario="chain", seed=1, flows=(FlowSpec("udp", (0, 1, 2)),)
    ),
    controller=ControllerSpec(enabled=False),
    cycles=1,
    cycle_measure_s=1.0,
    settle_s=0.2,
    label="cheap-chain",
)


def canonical(payloads: list[dict]) -> str:
    """Byte-comparable form of a result payload list."""
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


def canonical_batch(batch) -> str:
    """Byte-comparable form of a BatchResult, runtime block excluded."""
    return canonical(batch.to_dicts(include_runtime=False))


def strip_runtime(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "runtime"}


__all__ = ["FAST_SPEC", "canonical", "canonical_batch", "strip_runtime"]
