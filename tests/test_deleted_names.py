"""A deleted mechanism stays deleted.

Each entry below names something a PR measured against the ledger (or
against its own oracle) and removed; CHANGES.md has the verdicts.  The
scan is plain text over ``src/`` — and, where "only inside this
function" is the rule, the syntax tree — so it runs wherever the tests
run instead of in a CI step nobody executes locally.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import census

SRC = Path(__file__).resolve().parents[1] / "src"
QUEUE_COMMON = "repro/experiment/backends/queue_common.py"

#: (what came back, pattern, files it may not appear in, files exempt)
GONE = [
    (
        "a per-frame memo or default frame observer PR 18 deleted",
        r"_per_cache|_airtime_cache|_label_cache|LinkTracer",
        "**/*.py",
        (),
    ),
    (
        "a lease default read downstream of the envelope (PR 20)",
        r"default_lease_s\(\)|default_max_attempts\(\)",
        "**/*.py",
        (QUEUE_COMMON,),
    ),
    (
        "a second copy of a queue transition in the broker (PR 20)",
        r"_replay|_do_[a-z]+",
        "repro/experiment/broker.py",
        (),
    ),
    (
        "the per-window set intersection in the probe log (PR 21)",
        r"\.intersection\(range\(",
        "repro/net/probing.py",
        (),
    ),
    (
        "a frozenset per conflicting link pair (PR 21)",
        r"frozenset|_conflicts\b",
        "repro/core/interference.py",
        (),
    ),
    (
        "an environment variable choosing the event queue",
        r"REPRO_SIM_SCHEDULER|SCHEDULER_ENV",
        "**/*.py",
        (),
    ),
    (
        "the static analyzer the invariant tests replaced, or its suppression comment",
        r"repro-lint:|\brepro\.lint\b",
        "**/*.py",
        (),
    ),
    (
        "a second rate-control path beside decide() and the flow handles' limit_rate, "
        "or the controller's hidden enable_probing()",
        r"RateController|FlowRateAssignment|input_rates_from_outputs|release_udp|release_tcp"
        r"|auto_probing",
        "**/*.py",
        (),
    ),
    (
        "a list or set copy of what the array pass from probe log to extreme points computes",
        r"_ProbeLog|connectivity_from_loss_rates|from_two_hop|complement_graph"
        r"|bron_kerbosch_cliques|_backoff_sum_slots",
        "**/*.py",
        (),
    ),
    (
        "a running per-node sensed-energy sum or transmitting set beside the busy set",
        r"sensed_mw|_transmitting\b",
        "repro/mac/medium.py",
        (),
    ),
    (
        "a running per-reception interference sum beside the on-air set",
        r"cur_interference_mw",
        "repro/mac/medium.py",
        (),
    ),
    (
        "networkx under src/ (ConflictGraph.to_networkx, deleted: no caller outside tests)",
        r"networkx",
        "**/*.py",
        (),
    ),
    (
        "a sorted list of heard sequence numbers in the probe log",
        r"bisect|insort",
        "repro/net/probing.py",
        (),
    ),
    *[
        (f"the result cache's or planner's {what}", pattern, "**/*.py", ())
        for what, pattern in (
            ("index file", r"index\.json"),
            ("measured-cost ledger", r"measured_cost_s"),
            ("static cost estimate", r"estimate_cost_s"),
            ("cost-ledger bound", r"COST_LEDGER_MAX"),
            ("process-wide default handle", r"_shared_default_cache"),
            ("LRU entry bound", r"max_entries"),
            ("index bookkeeping", r"_rebuild_index|_coerce_entry|_trim_costs|cost_ledger_size"),
        )
    ],
]


@pytest.mark.parametrize("what, pattern, glob, exempt", GONE, ids=[entry[0] for entry in GONE])
def test_deleted_name_is_absent_from_src(what, pattern, glob, exempt):
    files = [
        path for path in sorted(SRC.glob(glob)) if path.relative_to(SRC).as_posix() not in exempt
    ]
    assert files, f"nothing matches {glob}: the guard guards nothing"
    found = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not found, f"{what} is back under src/:\n" + "\n".join(found)


def test_no_test_module_keeps_a_copy_of_its_parent():
    """Bits are held to git's base by ``tests/parent_bits.py``, meaning to
    ``tests/reference/paper.py``: no module under ``tests/`` is named
    ``_parent_oracles*`` or imports one."""
    tests = Path(__file__).resolve().parent
    importing = re.compile(r"^\s*(from|import)\s.*\b_parent_oracles", re.MULTILINE)
    back = [str(p) for p in tests.glob("**/_parent_oracles*") if "__pycache__" not in p.parts] + [
        str(path)
        for path in tests.glob("**/*.py")
        if importing.search(path.read_text(encoding="utf-8"))
    ]
    assert not back, back


def test_the_analyzer_package_is_gone():  # tests/invariants holds its rules
    assert not list((SRC / "repro" / "lint").glob("**/*.py"))


def test_the_log_fit_is_computed_for_reports_and_the_knee_once_per_length():
    """``np.polyfit`` (an SVD) and ``np.gradient`` left the per-series
    path in PR 21: the fit feeds ``ChannelLossEstimate.log_fit_coefficients``
    only, and the curvature search runs inside the ``lru_cache``d function
    of ``(Wmin, S)``."""
    allowed = {"polyfit": {"estimate_channel_loss_rate"}, "gradient": {"_knee_of_log_fit"}}
    tree = ast.parse((SRC / "repro/core/loss_estimator.py").read_text(encoding="utf-8"))
    seen: dict[str, set[str]] = {name: set() for name in allowed}
    for function in tree.body:
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and node.attr in allowed:
                seen[node.attr].add(getattr(function, "name", "<module>"))
    assert seen == allowed
    knee = next(node for node in tree.body if getattr(node, "name", "") == "_knee_of_log_fit")
    assert any("lru_cache" in ast.unparse(decorator) for decorator in knee.decorator_list)


def _src_trees():
    for path in sorted(SRC.glob("**/*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def test_no_scipy_and_no_linprog_under_src():
    """Every rate program runs on the one numpy interior-point iteration:
    PR 22 replaced the SLSQP solve, and the linear programs (max-throughput,
    max-min, ``FeasibilityRegion.contains`` / ``max_scaling``) followed.
    ``scipy.optimize.minimize``, ``linprog`` and the string ``"SLSQP"`` are
    gone from ``src/``, and nothing there imports scipy: it is a test-extra
    referee (its calls live in ``tests/reference/paper.py``)."""
    back = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # Docstrings and comments may tell the history; code may not ask for it.
                if node.value.strip().upper() == "SLSQP":
                    back.append(f"{where}: the string {node.value!r}")
            field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            if field and getattr(node, field).split(".")[-1] in {"minimize", "linprog"}:
                back.append(f"{where}: names {getattr(node, field)}")
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "scipy" for module in modules):
                back.append(f"{where}: imports scipy")
    assert not back, "a deleted solver is back under src/:\n" + "\n".join(back)


def test_local_drainers_have_one_spawn_path_and_it_is_the_fork_host():
    """PR 23 replaced the cold ``python -m repro.experiment.worker`` per
    drainer with forks of one warm host: ``queue_common`` starts exactly
    one kind of subprocess (the host) and the drainer command is worker
    arguments only - no interpreter prefix to run them cold with."""
    tree = ast.parse((SRC / QUEUE_COMMON).read_text(encoding="utf-8"))
    popens = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "subprocess.Popen"
    ]
    assert len(popens) == 1
    assert "--serve-forks" in ast.unparse(popens[0])
    [command] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_drainer_command"
    ]
    built = ast.unparse(command)
    assert "sys.executable" not in built and "'-m'" not in built


def test_the_heap_is_the_event_store_a_simulator_uses():
    """The default queue is the binary heap, whatever the environment
    says; the calendar is built only when a caller names it."""
    from repro.engine import Simulator

    assert Simulator().scheduler_kind == "heap"


#: What the scenario builders beside ``generated`` were made of.
SCENARIO_BUILDERS = (
    "random_multiflow_scenario", "starvation_scenario", "build_testbed_network",
    "hidden_terminal_radio", "traffic_seed", "MultiFlowScenario",
    "StarvationScenario", "_reject_unread", "_pick_demands",
)


def test_one_function_constructs_a_scenario_network():
    """``chain``, ``testbed``, ``random_multiflow`` and ``starvation`` are
    presets of ``generated``: ``repro.sim.scenarios`` and what it held are
    gone from the library, the benchmarks and the examples, and the
    registry constructs a ``MeshNetwork`` in one place."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sim.scenarios")
    root = SRC.parent
    pattern = re.compile(rf"\b({'|'.join(SCENARIO_BUILDERS)})\b")
    found = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for top in ("src", "benchmarks", "examples")
        for path in sorted((root / top).glob("**/*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, "\n".join(found)
    tree = ast.parse((SRC / "repro/experiment/registry.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "MeshNetwork"
    ]
    assert len(calls) == 1


#: Functions no entry point reached and only their own tests called
#: (``tests/census.py``), deleted with those tests; the verdict table keeps
#: ``UdpSource.refresh`` (a churn rejoin calls it).
UNREACHED = (
    "repro/analysis/metrics.py:empirical_cdf",
    "repro/analysis/metrics.py:relative_error",
    "repro/core/capacity.py:CapacityModel.expected_transmissions",
    "repro/core/capacity.py:CapacityModel.idle_time_s",
    "repro/core/capacity.py:CapacityModel.loss_rate_from_throughput",
    "repro/core/conflict_graph.py:ConflictGraph.interferes",
    "repro/core/conflict_graph.py:ConflictGraph.degree",
    "repro/core/interference.py:PairwiseInterferenceMap.interferes",
    "repro/core/interference.py:PairwiseInterferenceMap.conflicts_of",
    "repro/core/interference.py:PairwiseInterferenceMap.from_lir_measurements",
    "repro/core/lir_error.py:synthetic_pair_from_lir",
    "repro/core/lir_error.py:ExpectedErrors.combined",
    "repro/core/lir_error.py:best_threshold",
    "repro/core/optimizer.py:OptimizationResult.aggregate_rate",
    "repro/core/utility.py:AlphaFairUtility.is_throughput_maximising",
    "repro/core/utility.py:AlphaFairUtility.is_proportional_fair",
    "repro/net/node.py:MeshNode.add_tx_done_listener",
    "repro/net/probing.py:ProbingSystem.loss_rate",
    "repro/net/probing.py:ProbingSystem.loss_rates",
    "repro/net/probing.py:ProbingSystem.link_loss_rate",
    "repro/net/routing.py:FlowRoute.hop_count",
    "repro/net/routing.py:RoutingMatrix.link_index",
    "repro/net/routing.py:RoutingMatrix.flows_on_link",
    "repro/net/routing.py:Router.update_weights",
    "repro/net/routing.py:Router.route_flows",
    "repro/phy/error_models.py:SnrThresholdErrorModel.packet_error_probability",
    "repro/phy/propagation.py:FreeSpacePathLoss.path_loss_db",
    "repro/phy/propagation.py:PropagationModel.received_power_dbm",
    "repro/phy/radio.py:PhyRate.__str__",
    "repro/phy/radio.py:RadioConfig.eirp_dbm",
    "repro/phy/sinr.py:snr_db",
    "repro/phy/sinr.py:sinr_db",
    "repro/registry.py:Registry.description",
    "repro/sim/generators.py:build_topology",
    "repro/sim/generators.py:generate_workload",
    "repro/sim/network.py:MeshNetwork.install_routes_from_router",
    "repro/transport/tcp.py:TcpSource.set_shaper",
    "repro/transport/udp.py:UdpSource.set_shaper",
)

#: Their names wherever no kept function shares one, with the aliases and
#: state that went with them.
UNREACHED_NAMES = (
    "empirical_cdf", "relative_error", "expected_transmissions", "idle_time_s",
    "loss_rate_from_throughput", "conflicts_of", "from_lir_measurements",
    "synthetic_pair_from_lir", "best_threshold", "aggregate_rate",
    "is_throughput_maximising", "is_proportional_fair", "add_tx_done_listener",
    "_tx_done_listeners", "link_loss_rate", "hop_count", "flows_on_link", "update_weights",
    "route_flows", "SnrThresholdErrorModel", "FreeSpacePathLoss", "received_power_dbm",
    "sinr_db", "eirp_dbm", "scenario_description", "build_topology", "generate_workload",
    "install_routes_from_router", "set_shaper",
)


def test_a_function_deleted_as_unreached_stays_deleted():
    defs = census.functions()
    assert not [key for key in UNREACHED if key in defs]
    pattern = re.compile(rf"\b({'|'.join(UNREACHED_NAMES)})\b|\bdef snr_db\b")
    root = SRC.parent
    found = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for top in ("src", "benchmarks", "examples")
        for path in sorted((root / top).glob("**/*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, "\n".join(found)
