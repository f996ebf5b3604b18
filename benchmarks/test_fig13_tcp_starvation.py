"""Figure 13 — two-flow upstream TCP starvation, with and without rate
control.

A 1-hop and a 2-hop TCP flow send upstream to a gateway at 1 Mb/s.  The
paper shows: TCP-noRC and TCP-Max achieve (near-)maximum aggregate
throughput but starve the 2-hop flow; TCP-Prop lifts the starving flow
at some cost in aggregate throughput; rate control also stabilises both
flows.

The three variants are declared as :class:`ExperimentSpec`s over the
registered ``starvation`` scenario and executed by the batch runner —
twice: once cold through a fresh :class:`ResultCache` and once warm, so
the benchmark records the cache hit-rate and the warm-vs-cold wall
clock alongside the figure itself.
"""

from __future__ import annotations

import numpy as np

from repro.experiment import (
    BatchRunner,
    ControllerSpec,
    ExperimentSpec,
    ProbingSpec,
    ResultCache,
    ScenarioSpec,
)
from repro.analysis import ExperimentReport, format_table, jain_fairness_index

from conftest import run_cold_then_warm

PROBE_WARMUP_S = 50.0
MEASURE_S = 20.0
RUNS_PER_VARIANT = 2

VARIANTS = {
    "TCP-noRC": ControllerSpec(enabled=False),
    "TCP-Max": ControllerSpec(alpha=0.0, probing_window=90),
    "TCP-Prop": ControllerSpec(alpha=1.0, probing_window=90),
}


def _spec(name: str, controller: ControllerSpec, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(scenario="starvation", seed=seed, data_rate_mbps=1),
        probing=ProbingSpec(warmup_s=PROBE_WARMUP_S),
        controller=controller,
        cycles=1,
        cycle_measure_s=MEASURE_S,
        settle_s=5.0,
        label=name,
    )


def _run_all(cache):
    specs = [
        _spec(name, controller, seed)
        for name, controller in VARIANTS.items()
        for seed in range(RUNS_PER_VARIANT)
    ]
    # The serial backend is pinned so figure timings stay comparable
    # across hosts and with earlier BENCH_*.json records.
    batch = BatchRunner(specs, backend="serial", cache=cache).run()
    results: dict[str, list[tuple[float, float]]] = {}
    for spec, result in zip(specs, batch):
        two_hop, one_hop = result.meta["two_hop"], result.meta["one_hop"]
        throughputs = result.flow_throughputs_bps
        results.setdefault(spec.label, []).append(
            (throughputs[two_hop], throughputs[one_hop])
        )
    return results, batch


def test_fig13_tcp_starvation(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold, warm, cold_s, warm_s = run_cold_then_warm(
        benchmark, lambda: _run_all(cache), cache
    )
    results, cold_batch = cold
    _, warm_batch = warm
    # A warm sweep is served entirely from the cache, bit-identically.
    assert warm_batch.cache_hits == len(warm_batch)
    assert warm_batch.to_dicts() == cold_batch.to_dicts()
    report = ExperimentReport("Figure 13", "upstream TCP starvation with and without rate control")
    report.add(
        f"result cache: cold {cold_s:.1f} s -> warm {warm_s:.2f} s "
        f"({cold_s / max(warm_s, 1e-9):.0f}x), "
        f"warm hit rate {warm_batch.cache_hit_rate:.0%} of {len(warm_batch)} cells"
    )
    report.add(
        f"planner: {warm_batch.backend} backend, cold executed "
        f"{cold_batch.planner.executed}/{cold_batch.planner.unique} unique cells "
        f"of {cold_batch.planner.total} submitted, "
        f"warm executed {warm_batch.planner.executed}"
    )
    # The planner never dispatches a cache-resolved (or duplicated) cell.
    assert warm_batch.planner.executed == 0
    rows = []
    summary = {}
    for name, runs in results.items():
        two_hop = float(np.mean([r[0] for r in runs]))
        one_hop = float(np.mean([r[1] for r in runs]))
        total = two_hop + one_hop
        jfi = jain_fairness_index([two_hop, one_hop])
        summary[name] = dict(two_hop=two_hop, one_hop=one_hop, total=total, jfi=jfi)
        rows.append([name, two_hop / 1e3, one_hop / 1e3, total / 1e3, jfi])
    report.add(format_table(["variant", "2-hop kb/s", "1-hop kb/s", "total kb/s", "Jain index"], rows))
    report.add_comparison(
        "TCP-noRC / TCP-Max starve the 2-hop flow", "2-hop flow near zero",
        f"noRC 2-hop = {summary['TCP-noRC']['two_hop']/1e3:.1f} kb/s",
    )
    report.add_comparison(
        "TCP-Prop lifts the starving flow", "2-hop flow gets a substantial share",
        f"Prop 2-hop = {summary['TCP-Prop']['two_hop']/1e3:.1f} kb/s",
    )
    report.emit()
    # Shape assertions.
    assert summary["TCP-noRC"]["two_hop"] < 0.15 * summary["TCP-noRC"]["one_hop"]
    assert summary["TCP-Prop"]["two_hop"] > 3.0 * summary["TCP-noRC"]["two_hop"]
    assert summary["TCP-Prop"]["jfi"] > summary["TCP-noRC"]["jfi"]
    assert summary["TCP-Max"]["total"] > 0.75 * summary["TCP-noRC"]["total"]
