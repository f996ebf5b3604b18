"""Pluggable execution backends for batch sweeps.

The :class:`repro.experiment.batch.BatchRunner` does not run specs
itself: it plans the sweep (see :mod:`repro.experiment.planner`) and
hands the cells that actually need simulating to an
:class:`ExecutionBackend`.  Every backend speaks the same dict-in /
dict-out protocol as :func:`run_spec_payload` — a spec's canonical dict
goes in, the result's canonical dict comes out — so swapping backends
can never change results: by the determinism guarantees of the engine
(CRC32-derived RNG spawn keys), the payload a backend returns is
byte-identical no matter where the simulation ran.

Four backend names ship with the library:

* :class:`SerialBackend` — run every cell inline in the calling
  process.  The reference implementation the others are tested against.
* :class:`ProcessPoolBackend` — fan out across local worker processes
  with :class:`concurrent.futures.ProcessPoolExecutor`.
* :class:`WorkQueueBackend` and :class:`BrokerBackend` — **one queue
  submitter over two transports** (:mod:`.queue_common` has the verbs
  and everything that is not transport).  :class:`FileQueueClient` is a
  shared directory — one JSON task file per cell, claimed by atomic
  rename by *any* process that can see the directory;
  :class:`BrokerClient` speaks the same envelopes over HTTP to a
  :mod:`repro.experiment.broker`, so submitter and workers need only a
  URL in common.  The two backends only open their transport.

The queue is **self-healing**: a claim is a lease that the worker
heartbeats while it computes; every collect sweeps leases, and what a
claim whose lease expired — a ``kill -9``'d worker — becomes is
:func:`~repro.experiment.backends.queue_common.lease_verdict`'s to say
on both transports; local drainers — forks of the submitting process's
one warm worker host, see :class:`~.queue_common.DrainerPool` — are
topped up from the observed queue depth, so a dead worker costs one
lease interval, never the sweep.  The policy (the ``lease_s`` and
``max_attempts`` arguments) is set by the submitter and travels in each
task envelope.

:func:`repro.experiment.batch.resolve_backend` maps the ``backend``
argument of :class:`BatchRunner` (a name, an instance, or ``None`` for
the process pool) to an instance.
"""

from repro.experiment.backends.queue_common import task_envelope
from repro.experiment.backends.work_queue import TASKS_DIR, ensure_queue_dirs
from repro.experiment.backends.broker_client import BrokerClient

__all__ = [
    "BrokerClient",
    "TASKS_DIR",
    "ensure_queue_dirs",
    "task_envelope",
]
