"""repro — reproduction of "Online Optimization of 802.11 Mesh Networks"
(Salonidis, Sotiropoulos, Guérin, Govindan — ACM CoNEXT 2009).

The package is organised as the paper's system is:

* :mod:`repro.phy`, :mod:`repro.mac`, :mod:`repro.net`,
  :mod:`repro.transport`, :mod:`repro.sim` — the substrate: a packet-level
  802.11 DCF mesh simulator standing in for the paper's 18-node testbed.
* :mod:`repro.core` — the contribution: the convex feasibility-region
  model, its online estimation (capacity representation, channel-loss
  estimator, two-hop interference) and the utility-maximising
  rate-control loop.
* :mod:`repro.experiment` — the declarative front door: frozen
  specification dataclasses, a named scenario registry, the
  :class:`Experiment` runner, and a multi-seed :class:`BatchRunner`
  that plans sweeps (dedup, then cache resolution) and
  executes them on pluggable backends (serial, process pool, a
  shared-directory work queue remote hosts can drain, or an HTTP
  broker so the fleet needs only a URL in common) — with lease-based
  claims and per-task retries, so a worker killed mid-task costs one
  lease interval, not the sweep.
* :mod:`repro.analysis` — metrics and reporting used by the benchmark
  harness that regenerates every figure of the paper's evaluation.

Quickstart — declare a scenario, run it, read typed results::

    from repro.experiment import ControllerSpec, Experiment, ExperimentSpec, FlowSpec, ScenarioSpec

    spec = ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="chain",                 # a registered scenario name
            seed=1,
            flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
        ),
        controller=ControllerSpec(alpha=1.0), # proportional fairness
        cycles=1,
        cycle_measure_s=10.0,
    )
    result = Experiment(spec).run()
    print(result.flow_throughputs_bps, result.jain_index)
    decision = result.final_cycle.decision   # full ControlDecision per cycle

Sweep seeds through a planned, pluggable backend — duplicates simulate
once, cache hits resolve before fan-out, and serial, process-pool and
work-queue execution all return byte-identical results::

    from repro.experiment import BatchRunner, WorkQueueBackend, seed_sweep

    sweep = seed_sweep(spec, range(4))
    batch = BatchRunner(sweep).run()          # local process pool
    batch = BatchRunner(                      # shared-dir queue: remote
        sweep,                                # hosts join by running
        backend=WorkQueueBackend("/mnt/q"),   # python -m repro.experiment.worker /mnt/q
    ).run()
    print(batch.report().render())

Cache results on disk so repeated sweep cells skip the simulation
(:class:`repro.experiment.ResultCache` keys on a content digest of the spec;
exporting ``REPRO_CACHE_DIR`` enables it everywhere by default)::

    from repro.experiment import ResultCache

    cache = ResultCache("~/.cache/repro-mesh")
    warm = BatchRunner(seed_sweep(spec, range(4)), cache=cache).run()
    print(warm.cache_hits, cache.stats.hit_rate)

The original imperative path still works — build a
:class:`repro.sim.MeshNetwork`, add flows, enable probing and drive a
:class:`repro.core.OnlineOptimizer` by hand — and is what the spec layer
is built on.
"""

__version__ = "1.10.0"
