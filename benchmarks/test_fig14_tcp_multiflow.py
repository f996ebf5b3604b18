"""Figure 14 — TCP performance across multi-hop, multi-flow scenarios
with and without rate control.

Reports the four panels of the figure: (a) aggregate throughput of
rate-controlled TCP relative to plain TCP, (b) Jain fairness index,
(c) flow-isolation feasibility (achieved over optimized rate) and
(d) stability across repeated runs of the same configuration.

The whole scenarios x variants x repeated-runs matrix is enumerated as
:class:`ExperimentSpec`s over the registered ``random_multiflow``
scenario and executed by the batch runner; stability repeats re-seed
only the traffic randomness (``run_seed``), keeping topology and routes
fixed, exactly as the paper's repeated testbed runs do.
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
from repro.analysis import (
    ExperimentReport,
    format_table,
    jain_fairness_index,
    stability_deviations,
)

from conftest import run_cold_then_warm

SCENARIO_SPECS = [
    dict(seed=7, num_flows=3, rate_mode="11"),
    dict(seed=3, num_flows=3, rate_mode="mixed"),
]
PROBE_WARMUP_S = 45.0
MEASURE_S = 12.0
RUNS = 2

VARIANTS = {
    "noRC": ControllerSpec(enabled=False),
    "Max": ControllerSpec(alpha=0.0, probing_window=80, payload_bytes=1460),
    "Prop": ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
}


def _spec(scenario_kwargs: dict, controller: ControllerSpec, run_seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="random_multiflow", transport="tcp", run_seed=run_seed, **scenario_kwargs
        ),
        probing=ProbingSpec(warmup_s=PROBE_WARMUP_S),
        controller=controller,
        cycles=1,
        cycle_measure_s=MEASURE_S,
        settle_s=2.0,
    )


def _run_all(cache):
    data: dict[str, list[list[tuple[list[float], list[float] | None]]]] = {}
    payloads: list[dict] = []
    hits = cells = 0
    for name, controller in VARIANTS.items():
        per_scenario = []
        for scenario_kwargs in SCENARIO_SPECS:
            specs = [
                _spec(scenario_kwargs, controller, run_seed=1000 + r) for r in range(RUNS)
            ]
            # Serial backend pinned: figure timings stay comparable with
            # earlier BENCH_*.json records regardless of the environment.
            batch = BatchRunner(specs, backend="serial", cache=cache).run()
            payloads.extend(batch.to_dicts())
            hits, cells = hits + batch.cache_hits, cells + len(batch)
            runs = []
            for result in batch:
                final = result.final_cycle
                achieved = [final.achieved_bps[f] for f in result.flow_ids]
                targets = (
                    [final.target_bps[f] for f in result.flow_ids]
                    if final.target_bps
                    else None
                )
                runs.append((achieved, targets))
            per_scenario.append(runs)
        data[name] = per_scenario
    return data, payloads, hits, cells


def test_fig14_tcp_multiflow(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold, warm, cold_s, warm_s = run_cold_then_warm(
        benchmark, lambda: _run_all(cache), cache
    )
    data, cold_payloads, _, cells = cold
    _, warm_payloads, warm_hits, _ = warm
    # The acceptance bar of the cache subsystem: a repeated sweep over the
    # whole fig14 grid is served from the cache bit-identically and at
    # least 5x faster than simulating it.
    assert warm_hits == cells
    assert warm_payloads == cold_payloads
    assert cold_s / max(warm_s, 1e-9) >= 5.0
    report = ExperimentReport("Figure 14", "multi-flow TCP with and without rate control")
    report.add(
        f"result cache: cold {cold_s:.1f} s -> warm {warm_s:.2f} s "
        f"({cold_s / max(warm_s, 1e-9):.0f}x over {cells} grid cells), "
        f"warm hit rate {warm_hits / cells:.0%} (serial backend, "
        f"cache-aware planner)"
    )

    def mean_achieved(runs):
        return np.mean([sum(achieved) for achieved, _ in runs])

    rows = []
    ratios_max, ratios_prop, jfi_norc, jfi_prop = [], [], [], []
    feasibility = []
    stability_rc, stability_norc = [], []
    for index in range(len(SCENARIO_SPECS)):
        base = mean_achieved(data["noRC"][index])
        for name in ("noRC", "Max", "Prop"):
            runs = data[name][index]
            aggregate = mean_achieved(runs)
            mean_flow_rates = np.mean([achieved for achieved, _ in runs], axis=0)
            jfi = jain_fairness_index(mean_flow_rates)
            rows.append([f"scenario {index}", name, aggregate / 1e3, aggregate / max(base, 1.0), jfi])
            if name == "Max":
                ratios_max.append(aggregate / max(base, 1.0))
            if name == "Prop":
                ratios_prop.append(aggregate / max(base, 1.0))
                jfi_prop.append(jfi)
                for achieved, targets in runs:
                    feasibility.extend(
                        a / max(t, 1.0) for a, t in zip(achieved, targets)
                    )
            if name == "noRC":
                jfi_norc.append(jfi)
            # Stability: per-flow relative deviation across repeated runs.
            per_flow = np.array([achieved for achieved, _ in runs])
            for flow_index in range(per_flow.shape[1]):
                deviations = stability_deviations(per_flow[:, flow_index])
                (stability_norc if name == "noRC" else stability_rc).extend(deviations)

    report.add(format_table(
        ["scenario", "variant", "aggregate kb/s", "vs noRC", "Jain index"], rows
    ))
    report.add_comparison("(a) TCP-Max aggregate vs noRC", "up to 1.45x", f"{max(ratios_max):.2f}x")
    report.add_comparison(
        "(a) TCP-Prop aggregate vs noRC", ">=0.8x in 80% of scenarios",
        f"{[round(r, 2) for r in ratios_prop]}",
    )
    report.add_comparison(
        "(b) fairness", "TCP-Prop improves the Jain index over noRC",
        f"mean JFI prop={float(np.mean(jfi_prop)):.2f} vs noRC={float(np.mean(jfi_norc)):.2f}",
    )
    report.add_comparison(
        "(c) feasibility", "70% of flows achieve >=90% of their optimized rate",
        f"{float(np.mean([f >= 0.9 for f in feasibility])):.0%} of flows >=0.9 "
        f"(median ratio {float(np.median(feasibility)):.2f})",
    )
    report.add_comparison(
        "(d) stability", "70% of RC flows deviate <10% across runs (40% for noRC)",
        f"RC mean deviation {float(np.mean(stability_rc)):.2f}, "
        f"noRC mean deviation {float(np.mean(stability_norc)):.2f}",
    )
    report.emit()
    # Shape assertions: rate control does not collapse aggregate throughput,
    # proportional fairness does not reduce fairness, and most flows reach a
    # large fraction of their optimized rates.
    assert max(ratios_max) > 0.7
    assert float(np.mean(jfi_prop)) >= float(np.mean(jfi_norc)) - 0.05
    assert float(np.median(feasibility)) > 0.5
