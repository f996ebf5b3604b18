"""Compare two sets of ledger runs, metric by metric, against the bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

``A.json`` is the base (the parent commit, or the first of two A/A
sets), ``B.json`` the candidate; both are results files written by
``run.py --out`` holding several untraced runs per workload.  For every
workload and every bounded metric — the end-to-end metrics with the
bounds in ``BENCHMARK.json``, then the named headline views with the
bounds in ``ledger_spec.HEADLINE_BOUNDS`` — it prints both medians, the
ratio with its base, each side's spread (interquartile range over
median) and a verdict:

* ``worse``         B's median is worse than A's by more than the bound;
* ``within-bound``  it is not;
* ``unresolved``    a side's spread is wider than the bound, so the
  medians cannot settle it (unless the two sides do not even overlap).

Exits 1 on any ``worse`` or when B fails a larger share of its ops.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
if str(LEDGER_DIR) not in sys.path:
    sys.path.insert(0, str(LEDGER_DIR))

from ledger_spec import HEADLINE_BOUNDS, PER_LAYER  # noqa: E402


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced records of a results file, by workload."""
    runs: dict[str, list[dict]] = {}
    for record in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def bounded_metrics(benchmark: dict) -> list[tuple[str, str, float, bool]]:
    """``(name, better, bound, is_headline)`` for everything with a bound."""
    better_of = {m.name: m.better for m in PER_LAYER}
    return [(m["name"], m["better"], m["bound"], False) for m in benchmark["end_to_end"]] + [
        (name, better_of[name], bound, True) for name, bound in HEADLINE_BOUNDS.items()
    ]


def values_of(records: list[dict], name: str, headline: bool) -> list[float]:
    if headline:
        return [r["headline"][name] for r in records if name in r.get("headline", {})]
    return [r["metrics"][name]["value"] for r in records]


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and how much worse B's median is (negative: better)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    if max(spread(a), spread(b)) > bound:
        # Too noisy for medians — unless the sides do not overlap at all.
        cost_a, cost_b = [sign * v for v in a], [sign * v for v in b]
        if min(cost_b) > max(cost_a) and worse_by > bound:
            return "worse", worse_by
        if max(cost_b) < min(cost_a):
            return "within-bound", worse_by
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "within-bound"), worse_by


def failed_share(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    bad = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        print(f"\n## {workload}: {len(a)} base run(s), {len(b)} candidate run(s)")
        if not a or not b:
            print("   missing on one side: worse")
            bad += 1
            continue
        for name, better, bound, headline in bounded_metrics(benchmark):
            va, vb = values_of(a, name, headline), values_of(b, name, headline)
            if not va and not vb:
                continue  # a headline view of another workload
            if not va or not vb:
                print(f"   {name:28s} reported on one side only: worse")
                bad += 1
                continue
            word, worse_by = verdict(va, vb, better, bound)
            bad += word == "worse"
            base, cand = statistics.median(va), statistics.median(vb)
            print(
                f"   {name:28s} A {base:12.6g}  B {cand:12.6g}  B/A {cand / base:6.3f} "
                f"(base A)  spread A {spread(va):5.1%} B {spread(vb):5.1%}  "
                f"bound {bound:4.0%} {better:6s} -> {word} ({worse_by:+.1%})"
            )
        share_a, share_b = failed_share(a), failed_share(b)
        print(f"   ops failed/attempted: A {share_a:.4%}  B {share_b:.4%}")
        if share_b > share_a:
            print("   candidate fails a larger share of its ops: worse")
            bad += 1
    print(f"\n{bad} regression(s)")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads(
        (LEDGER_DIR.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    return compare(argv[0], argv[1], benchmark)


if __name__ == "__main__":
    raise SystemExit(main())
