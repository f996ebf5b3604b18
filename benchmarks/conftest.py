"""Shared configuration for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper's evaluation.  Heavy simulations run exactly once per benchmark
(``rounds=1``); the printed ``ExperimentReport`` blocks are what ends up
in ``bench_output.txt`` and in EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def run_cold_then_warm(benchmark, func, cache):
    """Benchmark ``func`` once cold (populating ``cache``), re-run it warm,
    and record the cache speedup in the benchmark's ``extra_info``.

    The cold run is what pytest-benchmark times; the warm run re-executes
    the identical sweep against the now-populated cache.  Returns
    ``(cold, warm, cold_wall_s, warm_wall_s)`` so callers can assert the
    two runs are bit-identical.
    """
    import time

    start = time.perf_counter()
    cold = run_once(benchmark, func)
    cold_wall_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = func()
    warm_wall_s = time.perf_counter() - start
    benchmark.extra_info["result_cache"] = {
        "cold_wall_s": round(cold_wall_s, 3),
        "warm_wall_s": round(warm_wall_s, 3),
        "warm_speedup": round(cold_wall_s / max(warm_wall_s, 1e-9), 1),
        **{k: round(v, 3) if isinstance(v, float) else v
           for k, v in cache.stats.as_dict().items()},
    }
    return cold, warm, cold_wall_s, warm_wall_s


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-print every emitted paper-vs-measured report after the run.

    Per-test stdout is captured by pytest; this hook makes the experiment
    reports part of the terminal summary so ``bench_output.txt`` contains
    them alongside the benchmark timings.
    """
    from repro.analysis.reporting import drain_emitted_reports

    reports = drain_emitted_reports()
    if not reports:
        return
    terminalreporter.write_sep("=", "paper vs measured reports")
    for report in reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(report.render())
