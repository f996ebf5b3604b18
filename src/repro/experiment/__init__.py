"""Declarative experiment API: spec -> build -> run -> typed results.

This package is the canonical public entry point to the reproduction:

* :mod:`repro.experiment.specs` — frozen, serializable specification
  dataclasses (:class:`ScenarioSpec`, :class:`ExperimentSpec`, ...);
* :mod:`repro.experiment.registry` — the named scenario registry
  (:func:`register_scenario`): the declarative ``generated``
  composition of the :mod:`repro.sim.generators` axes, plus the four
  canned presets;
* :mod:`repro.experiment.runner` — :class:`Experiment`, which drives
  warmup -> N optimizer cycles -> measurement and returns an
  :class:`ExperimentResult`;
* :mod:`repro.experiment.batch` — :class:`BatchRunner`, a multi-seed /
  multi-scenario sweep whose results are bit-identical no matter which
  backend executes them;
* :mod:`repro.experiment.backends` — the pluggable execution layer
  (:class:`SerialBackend`, :class:`ProcessPoolBackend`, the
  shared-directory :class:`WorkQueueBackend` remote workers drain via
  ``python -m repro.experiment.worker``, and the HTTP
  :class:`BrokerBackend` whose workers need only a URL in common with
  the submitter), selectable per-runner or globally with
  ``REPRO_BATCH_BACKEND``.  Queue claims are heartbeat leases with a
  per-task retry budget, so a worker killed mid-task costs one lease
  interval, not the sweep;
* :mod:`repro.experiment.broker` — the stdlib HTTP broker behind
  :class:`BrokerBackend` (``python -m repro.experiment.broker``);
* :mod:`repro.experiment.planner` — :class:`SweepPlanner`, which
  deduplicates identical specs, resolves cache hits before dispatch,
  and orders the remaining cells by estimated cost (slowest first);
* :mod:`repro.experiment.cache` — :class:`ResultCache`, a
  content-addressed on-disk cache of result payloads keyed by
  :func:`spec_digest`, consulted by the runner and the batch runner so
  repeated sweep cells skip the simulation (enable globally by
  exporting ``REPRO_CACHE_DIR``).
"""

from repro.experiment.backends import (
    BackendError,
    BrokerAuthError,
    BrokerBackend,
    BrokerClient,
    ExecutionBackend,
    ProcessPoolBackend,
    QueueStats,
    SerialBackend,
    WorkQueueBackend,
    backend_names,
    register_backend,
    resolve_backend,
    run_spec_payload,
)
from repro.experiment.batch import BatchResult, BatchRunner, seed_sweep
from repro.experiment.cache import (
    CacheStats,
    ResultCache,
    default_cache,
    resolve_cache,
)
from repro.experiment.planner import (
    PlannedJob,
    PlannerStats,
    SweepPlan,
    SweepPlanner,
    estimate_cost_s,
)
from repro.experiment.registry import (
    BuiltScenario,
    build_scenario,
    register_scenario,
    scenario_description,
    scenario_names,
)
from repro.experiment.runner import (
    CycleResult,
    Experiment,
    ExperimentResult,
    run_experiment,
)
from repro.experiment.specs import (
    NO_RATE_CONTROL,
    SPEC_SCHEMA_VERSION,
    ChurnSpec,
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    MobilitySpec,
    ProbingSpec,
    RadioSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
    spec_digest,
)

__all__ = [
    "BackendError",
    "BrokerAuthError",
    "BrokerBackend",
    "BrokerClient",
    "ExecutionBackend",
    "QueueStats",
    "SerialBackend",
    "ProcessPoolBackend",
    "WorkQueueBackend",
    "backend_names",
    "register_backend",
    "resolve_backend",
    "run_spec_payload",
    "BatchResult",
    "BatchRunner",
    "seed_sweep",
    "PlannedJob",
    "PlannerStats",
    "SweepPlan",
    "SweepPlanner",
    "estimate_cost_s",
    "CacheStats",
    "ResultCache",
    "default_cache",
    "resolve_cache",
    "SPEC_SCHEMA_VERSION",
    "spec_digest",
    "BuiltScenario",
    "build_scenario",
    "register_scenario",
    "scenario_description",
    "scenario_names",
    "CycleResult",
    "Experiment",
    "ExperimentResult",
    "run_experiment",
    "NO_RATE_CONTROL",
    "ChurnSpec",
    "ControllerSpec",
    "ExperimentSpec",
    "FlowSpec",
    "MobilitySpec",
    "ProbingSpec",
    "RadioSpec",
    "ScenarioSpec",
    "SpecError",
    "TopologySpec",
    "WorkloadSpec",
]
