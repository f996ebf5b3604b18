#!/usr/bin/env python3
"""The full online optimization loop on the 18-node testbed.

Declares a mixed-rate (1 / 11 Mb/s) multi-flow scenario on the synthetic
testbed and lets the :class:`repro.experiment.Experiment` runner drive the
probing/estimation/optimization/rate-control loop for several control
cycles — the operational mode of Section 6 of the paper.  A multi-seed
:class:`repro.experiment.BatchRunner` sweep of the same experiment follows, showing
how a whole evaluation matrix is enumerated from one spec — and then the
same sweep again through a :class:`repro.experiment.ResultCache`, where every cell
is a content-addressed lookup and no worker process is spawned.

Run with:  python examples/online_controller_demo.py
"""

from __future__ import annotations

import tempfile
import time

from repro.experiment import (
    BatchRunner,
    ControllerSpec,
    Experiment,
    ExperimentSpec,
    ProbingSpec,
    ResultCache,
    ScenarioSpec,
    seed_sweep,
)

SPEC = ExperimentSpec(
    scenario=ScenarioSpec(
        scenario="random_multiflow", seed=7, num_flows=4, rate_mode="mixed", transport="udp"
    ),
    probing=ProbingSpec(period_s=0.5, warmup_s=60.0),
    controller=ControllerSpec(alpha=1.0, probing_window=120),
    cycles=3,
    cycle_measure_s=15.0,
    settle_s=3.0,
    label="online-controller",
)


def main() -> None:
    print(f"experiment: {SPEC.describe()}")
    experiment = Experiment(SPEC)
    scenario = experiment.build()
    for flow in scenario.flows:
        rates = [scenario.network.link_rate(link).name for link in flow.links]
        print(f"  flow {flow.flow_id}: {' -> '.join(map(str, flow.path))}  ({', '.join(rates)})")

    print(f"\nwarming up the probing system for {SPEC.probing.warmup_s:.0f} s of virtual time...")
    result = experiment.run(scenario)

    for cycle in result.cycles:
        print(f"\ncontrol cycle {cycle.index + 1}:")
        for flow_id in result.flow_ids:
            target = cycle.target_bps[flow_id]
            got = cycle.achieved_bps[flow_id]
            ratio = got / target if target > 0 else 1.0
            print(
                f"  flow {flow_id}: target {target / 1e3:7.1f} kb/s, "
                f"achieved {got / 1e3:7.1f} kb/s ({100 * ratio:5.1f}%)"
            )
        extreme_points = (
            cycle.decision.region.num_extreme_points if cycle.decision is not None else 0
        )
        print(
            f"  aggregate {cycle.aggregate_bps / 1e3:.1f} kb/s, "
            f"utility {cycle.utility:.2f}, "
            f"{extreme_points} extreme points in the model"
        )

    # The same experiment as a 3-seed sweep: one spec, a whole matrix.
    # Attaching a ResultCache makes repeated sweeps content-addressed
    # lookups: the warm run below simulates nothing and spawns no workers.
    print("\nsweeping the same experiment across 3 scenario seeds...")
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        sweep = seed_sweep(SPEC, [7, 8, 9])
        start = time.perf_counter()
        batch = BatchRunner(sweep, cache=cache).run()
        cold_s = time.perf_counter() - start
        print(batch.report("online-controller seed sweep").render())

        start = time.perf_counter()
        warm = BatchRunner(sweep, cache=cache).run()
        warm_s = time.perf_counter() - start
        assert warm.to_dicts() == batch.to_dicts()
        print(
            f"\nwarm re-sweep: {warm.cache_hits}/{len(warm)} cells from cache, "
            f"bit-identical, {cold_s:.1f} s -> {warm_s:.2f} s "
            f"({cold_s / max(warm_s, 1e-9):.0f}x)"
        )


if __name__ == "__main__":
    main()
