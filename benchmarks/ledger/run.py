"""The performance ledger: one command, four workloads, every metric by name.

    python3 benchmarks/ledger/run.py                         # everything
    python3 benchmarks/ledger/run.py --workload cell_static  # one workload
    python3 benchmarks/ledger/run.py --workload cell_static --trace
    python3 benchmarks/ledger/run.py --runs 5 --out A.json   # a set for compare.py

With ``--workload`` the run measures that workload for ``--seconds``,
checks its outputs, prints every metric with its unit, appends a record
to ``--out``, and ends with the one-line JSON object ``BENCHMARK.json``'s
driver reads: the end-to-end metrics untraced, the per-layer metrics
with ``--trace`` (whose spans go to ``BENCH_ledger_trace.json``).
Without ``--workload`` it runs every workload in a process of its own
(peak memory is per process), untraced for each of ``--runs`` seeds and
traced once.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

LEDGER_DIR = Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parents[1] / "src"

#: Environment that would silently reroute a backend or attach a cache.
_SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_BATCH_BACKEND", "REPRO_BROKER_URL")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from ledger_spec import DEFAULT_SEED, RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): the traced run, per-layer metrics",
    )
    parser.add_argument("--out", default="BENCH_ledger.json", help="results file, appended to")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (all-workloads mode)")
    return parser.parse_args(argv)


# ------------------------------------------------------------- one workload
def _module(workload: str):
    """The module that implements ``workload``: each has ``setup(workload,
    seed, sizes, work_dir)``, ``measure(state, seconds, sizes)`` and
    ``trace(state, seed, sizes)``."""
    import ledger_cells
    import ledger_controller
    import ledger_sweep

    return {
        "cell_static": ledger_cells,
        "cell_dynamic": ledger_cells,
        "controller_dense": ledger_controller,
        "sweep_tiny": ledger_sweep,
    }[workload]


def set_up(workload: str, seed: int, sizes, work_dir: Path) -> tuple:
    """Set the workload up ``sizes.setup_repeats`` times.

    Returns ``(state, setup_s, import_s)``: the last state, the fastest
    whole set-up (fresh-interpreter import + inputs: best-of, like the
    other bounded time metric) and the median import alone.
    """
    from ledger_tracing import import_seconds, median

    setups, imports = [], []
    for _ in range(sizes.setup_repeats):
        start = perf_counter()
        imports.append(import_seconds(str(SRC_DIR)))
        state = _module(workload).setup(workload, seed, sizes, work_dir)
        setups.append(perf_counter() - start)
    return state, min(setups), median(imports)


def _record(workload, seed, seconds, traced, out, values, declared) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        # Every declared metric, always: a layer this workload never
        # enters did no work, which reads 0.
        "metrics": {
            m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit} for m in declared
        },
    }


def untraced_record(workload: str, seed: int, seconds: float, sizes, prepared: tuple) -> dict:
    """Measure for ``seconds``: the end-to-end metrics."""
    from ledger_spec import END_TO_END
    from ledger_tracing import peak_rss_mb

    state, setup_s, _ = prepared
    out = _module(workload).measure(state, seconds, sizes)
    rss = peak_rss_mb()
    values = dict(out.end_to_end, peak_rss_mb=max(rss.values()), setup_s=setup_s)
    record = _record(workload, seed, seconds, False, out, values, END_TO_END)
    record["headline"] = out.headline
    record["info"] = dict(out.info, peak_rss_mb=rss)
    return record


def traced_record(workload: str, seed: int, sizes, work_dir: Path, prepared: tuple) -> dict:
    """The fixed-size traced section plus the micro-benchmarks: the
    per-layer metrics, with the spans and profiler sites they came from."""
    import ledger_micro
    from ledger_spec import PER_LAYER

    state, _, import_s = prepared
    values, out, tracer, profiler = _module(workload).trace(state, seed, sizes)
    values.update(ledger_micro.run_all(sizes.micro_scale, work_dir))
    values["experiment.import_s"] = import_s
    record = _record(workload, seed, 0.0, True, out, values, PER_LAYER)
    record["spans"] = tracer.to_records()
    record["self_time_s"] = tracer.self_times()
    record["sites"] = profiler.table()
    return record


def print_record(record: dict) -> None:
    from ledger_spec import OPS

    mode = "traced" if record["trace"] else f"untraced, {record['seconds']:g} s"
    print(f"# {record['workload']} ({mode}, seed {record['seed']}); op = {OPS[record['workload']]}")
    for name, entry in record["metrics"].items():
        print(f"{name:45s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in record.get("headline", {}).items():
        print(f"{name:45s} {value:>16.6g} (headline)")
    for name, value in record.get("info", {}).items():
        print(f"{name:45s} {value}")
    print(f"{'ops_attempted':45s} {record['attempted']:>16d}")
    print(f"{'ops_failed':45s} {record['failed']:>16d}")
    for why in record["failures"]:
        print(f"FAILED OP: {why}")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_one(args: argparse.Namespace) -> int:
    from ledger_spec import FULL

    for name in _SCRUBBED_ENV:
        os.environ.pop(name, None)
    # Everything the program writes — private queues, broker stores,
    # drainer logs, caches — stays inside the checkout and is removed.
    work_dir = Path.cwd() / ".ledger_tmp" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work_dir)
    try:
        prepared = set_up(args.workload, args.seed, FULL, work_dir)
        if args.trace:
            record = traced_record(args.workload, args.seed, FULL, work_dir, prepared)
        else:
            record = untraced_record(args.workload, args.seed, args.seconds, FULL, prepared)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass

    out_path = Path(args.out)
    if record["trace"]:
        trace_path = out_path.with_name(out_path.stem + "_trace.json")
        traces = _read_json(trace_path)
        traces[record["workload"]] = {
            key: record.pop(key) for key in ("spans", "self_time_s", "sites")
        }
        _write_json(trace_path, traces)
    results = _read_json(out_path)
    results.setdefault("runs", []).append(record)
    _write_json(out_path, results)
    print_record(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ------------------------------------------------------------ all workloads
def run_all(args: argparse.Namespace) -> int:
    from ledger_spec import WORKLOADS

    bad = 0
    for run in range(args.runs):
        for workload in WORKLOADS:
            for traced in (0, 1) if run == 0 else (0,):
                command = [
                    sys.executable, str(LEDGER_DIR / "run.py"),
                    "--workload", workload, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", str(traced), "--out", args.out,
                ]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                    bad += 1
                    print(f"^^^ {workload} (trace {traced}) did not complete correctly", flush=True)
    print(f"\nresults appended to {args.out}; {bad} run(s) with failed ops")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    if not (SRC_DIR / "repro").is_dir():
        print(f"ledger: no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2
    for path in (str(SRC_DIR), str(LEDGER_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    args = parse_args(argv)
    return run_all(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
