"""Golden-result fixtures: one frozen ExperimentResult per scenario, and
one frozen canonical dict + digest per spec axis.

This module is the single source of truth for the golden regression
suite: it defines the spec grid (one small experiment per registered
scenario), the canonical serialization, and the regeneration entry
point.  ``tests/experiment/test_golden.py`` imports it to re-run the
same specs and compare byte-for-byte against the committed JSON.

``spec_digests.json`` is the fast half: :data:`DIGEST_SPECS` holds one
spec per topology kind, workload generator, mobility model, churn,
monitors and built-in scenario, and the fixture freezes each one's
canonical JSON and ``spec_digest`` without running anything — the fence
for refactors of the spec (de)serializer and of the spec defaults, and
the cheap proof that digests do not depend on the interpreter or on
numpy's number repr.  ``spec_schema_fingerprint.json`` (:func:`spec_schema`)
records the spec fields per ``SPEC_SCHEMA_VERSION``; ``tests/invariants``
recomputes it, and :func:`main` refuses a field change at an unchanged version.
``scenario_builds.json`` (:data:`SCENARIO_BUILDS`) records what each
built-in scenario name builds, also without simulating;
``tests/experiment/test_scenario_builds.py`` rebuilds it.

The fixtures freeze the *full simulation stack*: any change to the
engine, PHY/MAC/transport models, estimators, optimizer, or spec
semantics that alters results will fail the golden test.  When such a
change is intentional:

1. bump ``SPEC_SCHEMA_VERSION`` in ``repro/experiment/specs.py`` if the
   change invalidates cached results (it almost certainly does);
2. regenerate the fixtures::

       PYTHONPATH=src python tests/experiment/golden/regenerate.py

3. commit the refreshed JSON together with the change, and say in the
   commit message *why* the goldens moved.

Never regenerate to silence a failure you cannot explain — a moved
golden with no intentional semantics change is a determinism bug.
"""

from __future__ import annotations

import ast
import hashlib
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
SPECS_PATH = GOLDEN_DIR.parents[2] / "src" / "repro" / "experiment" / "specs.py"
SCHEMA_RECORD_PATH = GOLDEN_DIR / "spec_schema_fingerprint.json"

if __name__ == "__main__":  # running as a script from a source checkout
    _SRC = GOLDEN_DIR.parents[2] / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.experiment.registry import build_scenario  # noqa: E402
from repro.experiment.runner import ExperimentResult, run_experiment  # noqa: E402
from repro.experiment.specs import (  # noqa: E402
    ChurnSpec,
    ControllerSpec,
    ExperimentSpec,
    FlowSpec,
    MobilitySpec,
    ProbingSpec,
    RadioSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    spec_digest,
)

#: One deliberately small experiment per registered scenario, plus extra
#: regression grids (multi-cycle controller convergence).  Keep these
#: cheap (a few seconds each at most): they run in every tier-1 pass.
GOLDEN_SPECS: dict[str, ExperimentSpec] = {
    "chain": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="chain",
            seed=2,
            flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
        ),
        probing=ProbingSpec(warmup_s=5.0),
        controller=ControllerSpec(alpha=1.0, probing_window=40),
        cycles=1,
        cycle_measure_s=3.0,
        settle_s=0.5,
        label="golden-chain",
    ),
    "testbed": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="testbed", seed=3, flows=(FlowSpec("udp", (0, 1)),)
        ),
        controller=ControllerSpec(enabled=False),
        cycles=1,
        cycle_measure_s=3.0,
        settle_s=0.5,
        label="golden-testbed",
    ),
    "random_multiflow": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="random_multiflow",
            seed=5,
            num_flows=2,
            max_hops=3,
            rate_mode="11",
            transport="udp",
        ),
        probing=ProbingSpec(warmup_s=5.0),
        controller=ControllerSpec(alpha=1.0, probing_window=40),
        cycles=1,
        cycle_measure_s=3.0,
        settle_s=0.5,
        label="golden-random_multiflow",
    ),
    "starvation": ExperimentSpec(
        scenario=ScenarioSpec(scenario="starvation", seed=0, data_rate_mbps=1),
        probing=ProbingSpec(warmup_s=8.0),
        controller=ControllerSpec(alpha=1.0, probing_window=60),
        cycles=1,
        cycle_measure_s=5.0,
        settle_s=1.0,
        label="golden-starvation",
    ),
    # The declarative generator composition: grid topology x mixed
    # TCP/UDP workload, all randomness from named seed-derived streams.
    "generated": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="generated",
            seed=4,
            topology=TopologySpec(kind="grid", rows=2, cols=2, spacing_m=55.0),
            workload=WorkloadSpec(
                generator="mixed_tcp_udp", num_flows=2, max_hops=2, rate_bps=0.0
            ),
            rate_mode="11",
        ),
        probing=ProbingSpec(warmup_s=5.0),
        controller=ControllerSpec(alpha=1.0, probing_window=40),
        cycles=1,
        cycle_measure_s=3.0,
        settle_s=0.5,
        label="golden-generated",
    ),
    # Multi-cycle RC regression: freezes controller *convergence* across
    # optimizer cycles, not just the single-cycle outcome — every cycle's
    # targets and achieved rates are in the fixture.
    "chain_multicycle": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="chain",
            seed=2,
            flows=(FlowSpec("udp", (0, 1, 2)), FlowSpec("udp", (1, 2))),
        ),
        probing=ProbingSpec(warmup_s=5.0),
        controller=ControllerSpec(alpha=1.0, probing_window=40),
        cycles=3,
        cycle_measure_s=2.0,
        settle_s=0.5,
        label="golden-chain-multicycle",
    ),
}


def _generated(label: str, **scenario: object) -> ExperimentSpec:
    scenario.setdefault("topology", TopologySpec(kind="grid", rows=2, cols=3))
    scenario.setdefault("workload", WorkloadSpec())
    return ExperimentSpec(
        scenario=ScenarioSpec(scenario="generated", seed=1, **scenario), label=label
    )


#: The digest table: every axis of the spec vocabulary once.  Most cells
#: lean on the spec defaults on purpose — a default that moves, or a
#: number that serializes differently, moves a digest here.
DIGEST_SPECS: dict[str, ExperimentSpec] = {
    **{
        f"topology-{topology.kind}": _generated(
            f"digest-{topology.kind}", topology=topology
        )
        for topology in (
            TopologySpec(kind="chain"),
            TopologySpec(kind="line", num_nodes=5, spacing_m=55.0),
            TopologySpec(kind="grid", rows=3, cols=4),
            TopologySpec(kind="ring", num_nodes=6, radius_m=90.0),
            TopologySpec(kind="random_disk", num_nodes=8, min_separation_m=30.0),
            TopologySpec(kind="binary_tree", depth=4, spacing_m=50.0),
            TopologySpec(kind="parking_lot", num_nodes=4, stub_m=40.0),
            TopologySpec(kind="testbed", jitter_m=3.0),
            TopologySpec(
                kind="positions",
                positions=((0, 0.0, 0.0), (1, 50.0, 0.0), (4, 50.0, 42.5)),
            ),
        )
    },
    "workload-saturated_udp": _generated(
        "digest-saturated_udp", workload=WorkloadSpec(generator="saturated_udp")
    ),
    "workload-tcp_bulk": _generated(
        "digest-tcp_bulk",
        workload=WorkloadSpec(generator="tcp_bulk", num_flows=2, mss_bytes=512),
    ),
    "workload-mixed_tcp_udp": _generated(
        "digest-mixed_tcp_udp",
        workload=WorkloadSpec(
            generator="mixed_tcp_udp", tcp_fraction=0.25, rate_bps=0.0
        ),
    ),
    "workload-gravity": _generated(
        "digest-gravity",
        workload=WorkloadSpec(
            generator="gravity", rate_bps=150e3, weight_tail="pareto", tail_index=2.5
        ),
    ),
    "workload-random_pairs": _generated(
        "digest-random_pairs",
        workload=WorkloadSpec(generator="random_pairs", num_flows=3, tcp_fraction=1.0),
    ),
    "mobility-waypoint": _generated(
        "digest-waypoint",
        mobility=MobilitySpec(model="waypoint", epoch_s=0.5, speed_mps=2.0),
    ),
    "mobility-drift": _generated(
        "digest-drift", mobility=MobilitySpec(model="drift", drift_sigma_m=4.0)
    ),
    "churn": _generated(
        "digest-churn", churn=ChurnSpec(num_events=2, start_s=1.0, down_s=0.0)
    ),
    "monitors": ExperimentSpec(
        scenario=ScenarioSpec(scenario="chain", flows=(FlowSpec("tcp", (0, 1, 2)),)),
        monitors=("pdr", "throughput", "e2e_latency"),
        monitor_interval_s=0.5,
        label="digest-monitors",
    ),
    "scenario-generated": _generated(
        "digest-generated",
        flows=(FlowSpec("udp", (0, 1, 2), rate_bps=250e3),),
        workload=None,
        radio_profile="hidden_terminal",
        rate_mode="1",
    ),
    "scenario-chain": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="chain",
            seed=2,
            run_seed=9,
            data_rate_mbps=1,
            topology=TopologySpec(kind="chain", num_nodes=4),
            radio=RadioSpec(cs_threshold_dbm=-85.0, basic_rate_mbps=2),
            transport="tcp",
        ),
        controller=ControllerSpec(alpha=0.0, probing_window=64),
        label="digest-chain",
    ),
    "scenario-testbed": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="testbed",
            seed=3,
            shadowing_sigma_db=4.0,
            flows=(FlowSpec("udp", (0, 1)), FlowSpec("tcp", (4, 3), mss_bytes=512)),
        ),
        controller=ControllerSpec(enabled=False),
        label="digest-testbed",
    ),
    "scenario-random_multiflow": ExperimentSpec(
        scenario=ScenarioSpec(
            scenario="random_multiflow", seed=5, num_flows=3, max_hops=3,
            rate_mode="11", transport="tcp",
        ),
        probing=ProbingSpec(period_s=0.25, warmup_s=30.0),
        cycles=2,
        cycle_measure_s=8.0,
        settle_s=1.0,
        label="digest-random_multiflow",
    ),
    "scenario-starvation": ExperimentSpec(
        scenario=ScenarioSpec(scenario="starvation", data_rate_mbps=1),
        label="digest-starvation",
    ),
}

DIGEST_TABLE_PATH = GOLDEN_DIR / "spec_digests.json"

_TWO_FLOWS = (
    FlowSpec("udp", (0, 1, 2), rate_bps=200e3, payload_bytes=1000),
    FlowSpec("tcp", (1, 2), mss_bytes=512),
)

#: The build table: what ``build_scenario`` makes of each built-in name,
#: recorded without simulating anything.  The experiment goldens run one
#: spec per name and none of them draws ``mixed`` rates, so this grid is
#: the fence around each name's seeds, σ, link rates, radio, flows and
#: ``meta`` — in particular around the one stream ``random_multiflow``
#: draws its ``mixed`` rate jitter and then its demands from.
SCENARIO_BUILDS: dict[str, ScenarioSpec] = {
    **{
        f"random_multiflow-s{seed}-{rate_mode}-{transport}-h{max_hops}": ScenarioSpec(
            scenario="random_multiflow",
            seed=seed,
            rate_mode=rate_mode,
            transport=transport,
            max_hops=max_hops,
        )
        for seed in range(8)
        for rate_mode in ("1", "11", "mixed")
        for transport in ("udp", "tcp")
        for max_hops in (3, 4)
    },
    **{
        f"chain-{rate:g}-{'flows' if flows else 'default'}": ScenarioSpec(
            scenario="chain", seed=1, data_rate_mbps=rate, flows=flows
        )
        for rate in (1, 2, 5.5, 11)
        for flows in ((), _TWO_FLOWS)
    },
    "chain-grid-default": ScenarioSpec(
        scenario="chain",
        seed=2,
        topology=TopologySpec(kind="grid", rows=2, cols=3),
        transport="tcp",
    ),
    "chain-positions-flows": ScenarioSpec(
        scenario="chain",
        seed=2,
        data_rate_mbps=2,
        topology=TopologySpec(
            kind="positions", positions=((0, 0.0, 0.0), (3, 50.0, 0.0), (7, 100.0, 10.0))
        ),
        flows=(FlowSpec("udp", (0, 3, 7)),),
    ),
    "chain-radio-shadowing": ScenarioSpec(
        scenario="chain",
        seed=3,
        run_seed=9,
        data_rate_mbps=1,
        shadowing_sigma_db=4.0,
        topology=TopologySpec(kind="chain", num_nodes=4),
        radio=RadioSpec(cs_threshold_dbm=-85.0, basic_rate_mbps=2),
        transport="tcp",
    ),
    **{
        f"testbed-sigma{sigma}": ScenarioSpec(
            scenario="testbed", seed=3, shadowing_sigma_db=sigma, flows=_TWO_FLOWS
        )
        for sigma in (None, 0.0, 4.0)
    },
    "testbed-1-run_seed": ScenarioSpec(
        scenario="testbed",
        seed=4,
        run_seed=11,
        data_rate_mbps=1,
        flows=(FlowSpec("tcp", (4, 3)),),
    ),
    "starvation-golden": GOLDEN_SPECS["starvation"].scenario,
    **{
        f"starvation-{rate}-run_seed": ScenarioSpec(
            scenario="starvation", seed=2, run_seed=7, data_rate_mbps=rate
        )
        for rate in (1, 11)
    },
}

SCENARIO_BUILDS_PATH = GOLDEN_DIR / "scenario_builds.json"


def _flow_record(handle) -> dict:
    if hasattr(handle, "source"):  # a UDP handle; TCP keeps its source on .flow
        return {
            "kind": "udp",
            "path": list(handle.path),
            "payload_bytes": handle.source.payload_bytes,
            "rate_bps": handle.source.rate_bps,
        }
    return {"kind": "tcp", "path": list(handle.path), "mss_bytes": handle.flow.source.mss_bytes}


def scenario_build_record(spec: ScenarioSpec) -> dict:
    """Everything a run starts from, as plain JSON data: positions, every
    directed link's rate, propagation σ and seed (no seed when σ is 0:
    nothing is drawn), the radio, the traffic seed, each flow and
    ``meta`` — or the error the build raised."""
    try:
        built = build_scenario(spec)
    except Exception as error:  # a refused build is a record too
        return {"error": f"{type(error).__name__}: {error}"}
    try:
        network = built.network
        propagation = network.medium.propagation
        sigma = propagation.shadowing_sigma_db
        nodes = network.node_ids
        record = {
            "positions": [[node, *network.positions[node]] for node in nodes],
            # Mb/s of every directed link, (tx, rx) in node-id order.
            "link_rates_mbps": " ".join(
                f"{network.link_rate((tx, rx)).bps / 1e6:g}"
                for tx in nodes
                for rx in nodes
                if tx != rx
            ),
            "propagation": {"sigma_db": sigma, "seed": propagation.seed if sigma else None},
            "radio": {
                "cs_threshold_dbm": network.radio.cs_threshold_dbm,
                "data_rate": network.radio.data_rate.name,
            },
            "traffic_seed": network.sim.seed,
            "flows": [_flow_record(handle) for handle in built.flows],
            "meta": built.meta,
        }
    finally:
        built.close()
    return json.loads(json.dumps(record))


def scenario_builds_json() -> str:
    """The build table's fixture, one entry (spec and record) a line."""
    lines = [
        json.dumps(name) + ": " + json.dumps(
            {"spec": spec.to_dict(), "build": scenario_build_record(spec)}, sort_keys=True
        )
        for name, spec in sorted(SCENARIO_BUILDS.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def digest_entry(spec: ExperimentSpec) -> dict[str, str]:
    """What the table freezes for one spec: the exact bytes
    :func:`spec_digest` hashes its canonical dict from, and the digest."""
    return {
        "canonical": json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")),
        "digest": spec_digest(spec),
    }


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def canonical_json(result: ExperimentResult) -> str:
    """The frozen byte representation: runtime excluded (host-dependent),
    keys sorted, trailing newline — so fixtures diff cleanly in git."""
    return (
        json.dumps(result.to_dict(include_runtime=False), indent=2, sort_keys=True)
        + "\n"
    )


def compute(name: str) -> str:
    """Run the golden experiment ``name`` and return its canonical JSON."""
    return canonical_json(
        run_experiment(GOLDEN_SPECS[name], keep_decisions=False, cache=False)
    )


def spec_schema(source: str) -> dict:
    """A ``specs.py`` source's ``SPEC_SCHEMA_VERSION``, each dataclass's sorted public
    field names (``ClassVar`` excluded), and the sha256 of those field sets."""
    version, classes = None, {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == "SPEC_SCHEMA_VERSION" for target in targets):
                version = getattr(node.value, "value", None)
        elif isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
        ):
            classes[node.name] = sorted(
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and not stmt.target.id.startswith("_")
                and "ClassVar" not in ast.unparse(stmt.annotation)
            )
    canonical = json.dumps(classes, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fingerprint = hashlib.sha256(canonical).hexdigest()
    return {"classes": classes, "fingerprint": fingerprint, "spec_schema_version": version}


def _write(path: Path, text: str) -> None:
    changed = not path.exists() or path.read_text(encoding="utf-8") != text
    path.write_text(text, encoding="utf-8")
    print(f"{'rewrote' if changed else 'unchanged'}  {path.name}")


def main() -> int:
    record = spec_schema(SPECS_PATH.read_text(encoding="utf-8"))
    recorded = json.loads(SCHEMA_RECORD_PATH.read_text(encoding="utf-8"))
    if record != recorded and record["spec_schema_version"] == recorded["spec_schema_version"]:
        raise SystemExit("spec fields changed but SPEC_SCHEMA_VERSION did not: bump it first")
    _write(SCHEMA_RECORD_PATH, json.dumps(record, indent=2, sort_keys=True) + "\n")
    table = {name: digest_entry(spec) for name, spec in DIGEST_SPECS.items()}
    _write(DIGEST_TABLE_PATH, json.dumps(table, indent=2, sort_keys=True) + "\n")
    _write(SCENARIO_BUILDS_PATH, scenario_builds_json())
    for name in GOLDEN_SPECS:
        _write(golden_path(name), compute(name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
