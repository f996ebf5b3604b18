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
sibling modules and register themselves here via
:func:`register_backend`; importing :mod:`repro.experiment.backends`
loads all of them, which is why :func:`resolve_backend` is normally
reached through the package namespace.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendError",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "backend_names",
    "register_backend",
    "resolve_backend",
    "run_spec_payload",
]

#: Environment variable naming the default backend (see :func:`resolve_backend`).
BACKEND_ENV_VAR = "REPRO_BATCH_BACKEND"


class BackendError(RuntimeError):
    """A backend failed to produce a result for a submitted spec."""


def run_spec_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The worker protocol: spec dict in, result dict out.

    Caching is disabled here even when ``REPRO_CACHE_DIR`` is set: the
    submitting process resolves cache hits before dispatching and writes
    back what the executors return.
    """
    from repro.experiment.runner import Experiment
    from repro.experiment.specs import ExperimentSpec

    spec = ExperimentSpec.from_dict(payload)
    return Experiment(spec, keep_decisions=False).run(cache=False).to_dict()


class ExecutionBackend(ABC):
    """Executes spec payloads and returns result payloads, in order.

    Implementations must be order-preserving (``results[i]`` corresponds
    to ``payloads[i]``) and must produce payloads byte-identical to
    :func:`run_spec_payload` run inline — the cross-backend determinism
    suite holds every backend to that bar.
    """

    #: Registry name (also the value ``REPRO_BATCH_BACKEND`` takes).
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


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------
#: name -> factory taking the resolver's ``max_workers`` argument.
_BACKENDS: dict[str, Callable[[int | None], ExecutionBackend]] = {}


def register_backend(
    name: str, factory: Callable[[int | None], ExecutionBackend]
) -> None:
    """Register a backend ``name`` for :func:`resolve_backend` /
    ``REPRO_BATCH_BACKEND``; ``factory(max_workers)`` builds an instance."""
    _BACKENDS[name] = factory


register_backend(SerialBackend.name, lambda max_workers: SerialBackend())
register_backend(
    ProcessPoolBackend.name,
    lambda max_workers: ProcessPoolBackend(max_workers=max_workers),
)


def backend_names() -> list[str]:
    """The registered backend names, sorted."""
    return sorted(_BACKENDS)


def resolve_backend(
    backend: "ExecutionBackend | str | None",
    max_workers: int | None = None,
) -> ExecutionBackend:
    """Resolve the ``backend`` argument of :class:`BatchRunner`.

    * an :class:`ExecutionBackend` instance is used as given;
    * a name (``"serial"``, ``"process"``, ``"work_queue"``,
      ``"broker"``) is instantiated with ``max_workers``;
    * ``None`` honors ``REPRO_BATCH_BACKEND`` when set (the CI backend
      matrix uses this) and defaults to :class:`ProcessPoolBackend`.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or ProcessPoolBackend.name
    name = str(backend)
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None
    return factory(max_workers)
