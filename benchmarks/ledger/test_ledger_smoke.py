"""Smoke test of the performance ledger (tier-1, minimum sizes).

Runs every workload at ``SMOKE`` size, untraced and traced, and checks
the contract between ``BENCHMARK.json``, ``ledger_spec`` and what the
runs emit — plus that the correctness checks are live: the traced replay
reproduces ``run_experiment``'s digest, and a corrupted repeat is
reported as a failed op.  No timing is asserted anywhere.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
for _path in (str(REPO_ROOT / "src"), str(LEDGER_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import ledger_cells  # noqa: E402
import ledger_spec  # noqa: E402
import run as ledger_run  # noqa: E402
from ledger_spec import SMOKE  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict[tuple[str, bool], dict]:
    """One untraced and one traced record per workload, sharing a set-up."""
    made = {}
    for workload in ledger_spec.WORKLOADS:
        work_dir = tmp_path_factory.mktemp(workload)
        prepared = ledger_run.set_up(workload, 7, SMOKE, work_dir)
        made[workload, False] = ledger_run.untraced_record(workload, 7, 0.0, SMOKE, prepared)
        made[workload, True] = ledger_run.traced_record(workload, 7, SMOKE, work_dir, prepared)
    return made


def test_benchmark_json_is_what_the_spec_declares():
    assert BENCHMARK == ledger_spec.benchmark_json()
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "cell_static", "cell_dynamic", "controller_dense", "sweep_tiny",
    ]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names)) and len(BENCHMARK["per_layer"]) < 128
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_interaction_targets_a_declared_metric_and_workload():
    end_to_end = {m.name for m in ledger_spec.END_TO_END}
    for row in ledger_spec.PER_LAYER:
        assert row.source in ("micro", "trace", "headline"), row.name
        for metric, workload in row.moves:
            assert metric in end_to_end, (row.name, metric)
            assert workload in ledger_spec.WORKLOADS, (row.name, workload)
    assert set(ledger_spec.HEADLINE_BOUNDS) <= {m.name for m in ledger_spec.PER_LAYER}


@pytest.mark.parametrize("workload", list(ledger_spec.WORKLOADS))
def test_every_declared_metric_is_emitted(records, workload):
    for traced, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        record = records[workload, traced]
        assert record["correct"] and record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        assert list(record["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            entry = record["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert entry["value"] == entry["value"]  # not NaN
        if not traced:  # end-to-end metrics are never 0
            assert all(entry["value"] > 0 for entry in record["metrics"].values())


def test_off_path_layers_read_zero_and_on_path_layers_do_not(records):
    value = lambda workload, name: records[workload, True]["metrics"][name]["value"]  # noqa: E731
    assert value("cell_dynamic", "monitors.site_s") > 0
    assert value("cell_dynamic", "sim.dynamics_site_s") > 0
    assert value("cell_static", "monitors.site_s") == 0
    assert value("cell_static", "mac.site_s") > 0
    assert value("controller_dense", "core.extreme_points") == 35
    assert value("controller_dense", "sim.measure_s") == 0
    assert value("sweep_tiny", "core.solve_ms") == 0
    assert value("sweep_tiny", "experiment.broker.per_task_ms") != 0
    assert value("sweep_tiny", "experiment.cache_hits") == SMOKE.sweep_tasks
    assert value("cell_static", "experiment.broker.per_task_ms") == 0
    for workload in ledger_spec.WORKLOADS:  # micro rows are workload-independent
        assert value(workload, "engine.dispatch_events_per_s") > 0
        assert value(workload, "experiment.import_s") > 0


def test_traced_replay_is_the_program_run_experiment_runs():
    from repro.experiment import run_experiment

    from ledger_replay import replay_cell
    from ledger_tracing import Tracer

    spec = ledger_cells.dynamic_spec(1000, SMOKE.sim_scale)
    tracer = Tracer()
    replayed, _ = replay_cell(spec, tracer, "test")
    real = run_experiment(spec, keep_decisions=False, cache=False)
    assert ledger_cells.fingerprint(replayed) == ledger_cells.fingerprint(real)
    names = {span[0] for span in tracer.spans}
    assert {"cell", "sim.build_scenario", "net.probing_warmup", "engine.run",
            "core.optimize", "sim.measure", "monitors.collect"} <= names
    assert tracer.self_times()["cell"] < tracer.total("cell")


def test_a_corrupted_repeat_is_a_failed_op():
    from repro.experiment import run_experiment

    state = ledger_cells.setup("cell_static", 7, SMOKE)
    calls = 0

    def corrupting(spec, **kwargs):
        nonlocal calls
        calls += 1
        result = run_experiment(spec, **kwargs)
        if calls == 2:  # same spec, same events, one throughput bit-flipped
            flow = next(iter(result.cycles[0].achieved_bps))
            result.cycles[0].achieved_bps[flow] += 1.0
        return result

    out = ledger_cells.measure(state, 0.0, SMOKE, run_cell=corrupting)
    assert (out.attempted, out.failed) == (2, 1)
    assert "differ from first visit" in out.failures[0]


def test_an_unregistered_backend_fails_all_of_its_tasks(tmp_path):
    import ledger_sweep
    from ledger_tracing import Outcome

    state = ledger_sweep.setup("sweep_tiny", 7, SMOKE, tmp_path)
    out = Outcome()
    assert ledger_sweep.run_batch("no_such_backend", state.specs, state, out) is None
    assert (out.attempted, out.failed) == (SMOKE.sweep_tasks, SMOKE.sweep_tasks)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [103.0, 104.0, 102.0, 103.5], "lower", 0.05)[0] == "within-bound"
    assert compare.verdict(steady, [110.0, 111.0, 109.0, 110.5], "lower", 0.05)[0] == "worse"
    assert compare.verdict(steady, [90.0, 91.0, 89.0, 90.5], "higher", 0.05)[0] == "worse"
    noisy = [100.0, 120.0, 80.0, 110.0]
    assert compare.verdict(noisy, [104.0, 125.0, 84.0, 112.0], "lower", 0.05)[0] == "unresolved"
    assert compare.verdict(noisy, [90.0, 108.0, 72.0, 99.0], "higher", 0.05)[0] == "unresolved"
    assert compare.verdict(noisy, [150.0, 170.0, 130.0, 160.0], "lower", 0.05)[0] == "worse"
    assert compare.verdict(noisy, [150.0, 170.0, 130.0, 160.0], "higher", 0.05)[0] == "within-bound"
