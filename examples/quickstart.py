#!/usr/bin/env python3
"""Quickstart: optimize two UDP flows on a small mesh, declaratively.

Declares a three-node chain scenario with a 2-hop and a 1-hop UDP flow,
runs it through the :class:`repro.experiment.Experiment` runner (probe warmup, one
online optimization cycle, measurement) and prints the typed results:
per-link online estimates, optimized rates and achieved throughput.
Finishes by re-running the identical spec through a
:class:`repro.experiment.ResultCache`, where the second run is a content-addressed
lookup instead of a simulation.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
import time

from repro.experiment import (
    ControllerSpec,
    Experiment,
    ExperimentSpec,
    FlowSpec,
    ProbingSpec,
    ResultCache,
    ScenarioSpec,
)


def main() -> None:
    # 1.-3. Declare the whole experiment: a three-node chain at 11 Mb/s,
    #    two UDP flows sharing the relay, 60 s of probe warmup and one
    #    proportional-fair optimization cycle.
    spec = ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="chain",
            seed=1,
            flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
        ),
        probing=ProbingSpec(period_s=0.5, warmup_s=60.0),
        controller=ControllerSpec(alpha=1.0, probing_window=100),
        cycles=1,
        cycle_measure_s=10.0,
        settle_s=2.0,
        label="quickstart",
    )

    # 4. Run it: estimate capacities, build the conflict graph, maximize
    #    proportional-fair utility, program rates, measure.
    print("measuring links with broadcast probes (60 s of virtual time)...")
    result = Experiment(spec).run()
    cycle = result.final_cycle
    decision = cycle.decision

    print("\nper-link online estimates:")
    for link, estimate in decision.link_estimates.items():
        print(
            f"  link {link}: channel loss {estimate.channel_loss:.3f}, "
            f"capacity {estimate.capacity_bps / 1e6:.2f} Mb/s"
        )
    print("\noptimized output rates:")
    for flow_id in result.flow_ids:
        path = result.flow_paths[flow_id]
        target = cycle.target_bps[flow_id]
        print(f"  flow {flow_id} ({' -> '.join(map(str, path))}): {target / 1e3:.0f} kb/s")

    # 5. The runner already measured what the programmed rates achieve.
    print("\nachieved throughput:")
    for flow_id in result.flow_ids:
        achieved = cycle.achieved_bps[flow_id]
        target = cycle.target_bps[flow_id]
        print(
            f"  flow {flow_id}: {achieved / 1e3:.0f} kb/s "
            f"({100 * achieved / max(target, 1):.0f}% of the optimized rate)"
        )
    print(
        f"\naggregate {result.aggregate_bps / 1e3:.0f} kb/s, "
        f"Jain fairness index {result.jain_index:.3f}, "
        f"{result.events_processed} simulator events in {result.wall_time_s:.2f} s"
    )

    # 6. Results are content-addressed by their spec: store the run we
    #    already have and re-running the same experiment becomes a cache
    #    lookup instead of a simulation (set REPRO_CACHE_DIR to enable
    #    this everywhere by default).
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        cache.put(result)
        start = time.perf_counter()
        cached = Experiment(spec, keep_decisions=False).run(cache=cache)
        lookup_s = time.perf_counter() - start
        assert cached.to_dict(include_runtime=False) == result.to_dict(
            include_runtime=False
        )
        print(
            f"\ncached re-run: bit-identical result in {1e3 * lookup_s:.1f} ms "
            f"(cache hit rate {cache.stats.hit_rate:.0%})"
        )


if __name__ == "__main__":
    main()
