"""Backend contract, the in-process backends, and name resolution.

The execution protocol every backend speaks is
:func:`run_spec_payload` — a spec's canonical dict goes in, the result's
canonical dict comes out — so swapping backends can never change
results: by the determinism guarantees of the engine (CRC32-derived RNG
spawn keys), the payload a backend returns is byte-identical no matter
where the simulation ran.

The queue-shaped backends (file-based
:class:`~repro.experiment.backends.work_queue.WorkQueueBackend`, HTTP
:class:`~repro.experiment.backends.broker_client.BrokerBackend`) live in
sibling modules; :func:`repro.experiment.batch.resolve_backend` maps a
name to any of the four.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Any, Mapping, Sequence

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "run_spec_payload",
]


class BackendError(RuntimeError):
    """A backend failed to produce a result for a submitted spec."""


def run_spec_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The worker protocol: spec dict in, result dict out.

    Runs uncached: the submitting process resolves cache hits before
    dispatching and writes back what the executors return.
    """
    from repro.experiment.runner import Experiment
    from repro.experiment.specs import ExperimentSpec

    spec = ExperimentSpec.from_dict(payload)
    return Experiment(spec, keep_decisions=False).run().to_dict()


class ExecutionBackend(ABC):
    """Executes spec payloads and returns result payloads, in order.

    Implementations must be order-preserving (``results[i]`` corresponds
    to ``payloads[i]``) and must produce payloads byte-identical to
    :func:`run_spec_payload` run inline — the cross-backend determinism
    suite holds every backend to that bar.
    """

    #: Its key in :data:`repro.experiment.batch.BACKENDS`.
    name: str = ""

    @abstractmethod
    def run(self, payloads: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Execute every payload and return the result payloads in order."""

    def workers_for(self, num_tasks: int) -> int:
        """How many workers this backend would engage for ``num_tasks``
        (1 means the work effectively runs serially)."""
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Run every cell inline, in submission order, in this process."""

    name = "serial"

    def run(self, payloads: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        return [run_spec_payload(payload) for payload in payloads]


class ProcessPoolBackend(ExecutionBackend):
    """Fan out across local processes with a ``ProcessPoolExecutor``.

    Args:
        max_workers: process count; defaults to the CPU count capped at
            the number of submitted cells.  With one cell (or one
            worker) the pool is skipped entirely and the cell runs
            inline — identical results, no startup cost.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers

    def workers_for(self, num_tasks: int) -> int:
        if num_tasks <= 1:
            return 1
        return self.max_workers or min(num_tasks, os.cpu_count() or 1)

    def run(self, payloads: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        workers = self.workers_for(len(payloads))
        if workers <= 1:
            return [run_spec_payload(payload) for payload in payloads]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_spec_payload, payloads))
