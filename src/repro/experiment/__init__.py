"""Declarative experiment API: spec -> build -> run -> typed results.

This package is the canonical public entry point to the reproduction:

* :mod:`repro.experiment.specs` — frozen, serializable specification
  dataclasses (:class:`ScenarioSpec`, :class:`ExperimentSpec`, ...);
* :mod:`repro.experiment.registry` — :func:`build_scenario`: the
  declarative ``generated`` composition of the
  :mod:`repro.sim.generators` tables, plus the three canned presets;
* :mod:`repro.experiment.runner` — :class:`Experiment`, which drives
  warmup -> N optimizer cycles -> measurement and returns an
  :class:`ExperimentResult`;
* :mod:`repro.experiment.batch` — :class:`BatchRunner`, a multi-seed /
  multi-scenario sweep whose results are bit-identical no matter which
  backend executes them, and :func:`resolve_backend`, which maps a
  backend name to one of the four;
* :mod:`repro.experiment.backends` — the pluggable execution layer
  (:class:`SerialBackend`, :class:`ProcessPoolBackend`, the
  shared-directory :class:`WorkQueueBackend` remote workers drain via
  ``python -m repro.experiment.worker``, and the HTTP
  :class:`BrokerBackend` whose workers need only a URL in common with
  the submitter), chosen by each runner's ``backend`` argument (the
  process pool when it passes none).  Queue claims are heartbeat leases
  with a per-task retry budget, so a worker killed mid-task costs one
  lease interval, not the sweep;
* :mod:`repro.experiment.broker` — the stdlib HTTP broker behind
  :class:`BrokerBackend` (``python -m repro.experiment.broker``);
* :mod:`repro.experiment.planner` — :class:`SweepPlanner`, which
  deduplicates identical specs and resolves cache hits before
  dispatch; the remaining cells run in submission order;
* :mod:`repro.experiment.cache` — :class:`ResultCache`, a
  content-addressed directory of result payloads, one file per
  :func:`spec_digest`, consulted by the runner and the batch runner so
  repeated sweep cells skip the simulation (a run is cached only when
  its caller passes one).
"""

from repro.experiment.backends.base import ExecutionBackend
from repro.experiment.backends.broker_client import BrokerBackend
from repro.experiment.backends.work_queue import WorkQueueBackend
from repro.experiment.batch import (
    BatchResult,
    BatchRunner,
    backend_names,
    resolve_backend,
    seed_sweep,
)
from repro.experiment.cache import ResultCache
from repro.experiment.planner import SweepPlanner
from repro.experiment.registry import build_scenario
from repro.experiment.runner import Experiment, ExperimentResult, run_experiment
from repro.experiment.specs import (
    ChurnSpec,
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    MobilitySpec,
    ProbingSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    spec_digest,
)

__all__ = [
    "ExecutionBackend",
    "backend_names",
    "resolve_backend",
    "BrokerBackend",
    "WorkQueueBackend",
    "BatchResult",
    "BatchRunner",
    "seed_sweep",
    "ResultCache",
    "SweepPlanner",
    "build_scenario",
    "Experiment",
    "ExperimentResult",
    "run_experiment",
    "ChurnSpec",
    "ControllerSpec",
    "ExperimentSpec",
    "FlowSpec",
    "MobilitySpec",
    "ProbingSpec",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "spec_digest",
]
