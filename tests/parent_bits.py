"""Does a change keep the shipped code's bits?  One probe script runs under
git's base ``src/`` and under the working tree's; their bytes must agree.

    python tests/parent_bits.py                          # exit 1 on a moved probe
    python tests/parent_bits.py --probe SRC [GROUP ...]  # SRC's probe digests

The base is ``HEAD`` while the working tree's ``src/`` differs from it, and
``HEAD~1`` once the change is committed; without git, without a base
commit or with the same ``src/``, the check skips and says why.  A change
that moves bits on purpose lists the moved probes (a name, or a group) in
``parent_bits_moved.json`` under the base commit's sha, as ``{"<sha>":
["decide", "estimator/series"]}``: an entry means nothing once another
commit is the base.  Each probe hashes what the code returns (array
bytes with their dtypes, verdicts, solver messages) into one digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
MOVED = Path(__file__).with_name("parent_bits_moved.json")
BIT_ALPHAS = [0.0, 0.5, 1.0, 2.0, 4.0]


# ------------------------------------------------------------------- probes
def _feed(digest, value) -> None:
    if isinstance(value, np.ndarray):
        digest.update(f"array {value.dtype.str} {value.shape} ".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        digest.update(f"float {value.hex()} ".encode())
    elif isinstance(value, (list, tuple, dict)):
        digest.update(b"[")
        for item in value.items() if isinstance(value, dict) else value:
            _feed(digest, item)
        digest.update(b"]")
    elif isinstance(value, (set, frozenset)):
        _feed(digest, sorted(map(repr, value)))
    else:
        digest.update(f"{type(value).__name__} {value!r} ".encode())


def _attempt(function, *args):
    """``function(*args)``, or what it raised: an outcome too."""
    try:
        return function(*args)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _programs(region, routing, alphas):
    """The presolve, each alpha-fair program, max-min and the scaling
    factor along the load vector: rates, weights, verdicts, messages."""
    from repro.core.optimizer import RateOptimizer
    from repro.core.utility import AlphaFairUtility, MAX_THROUGHPUT
    from repro.core.extreme_points import non_dominated_rows

    optimizers = [RateOptimizer(region, routing, AlphaFairUtility(alpha=a)) for a in alphas]
    solves = [optimizer.solve for optimizer in optimizers]
    solves.append(RateOptimizer(region, routing, MAX_THROUGHPUT).solve_max_min)
    out = [non_dominated_rows(region.extreme_points)]
    out += [_attempt(lambda: dataclasses.astuple(solve())) for solve in solves]
    return out + [_attempt(region.max_scaling, routing.matrix.sum(axis=1))]


def probe_decide():
    """``decide`` on the recorded ``controller_dense`` window, and every
    program of its region."""
    from core.golden import record_window
    from repro.core.controller import decide
    from repro.core.utility import AlphaFairUtility
    from repro.net.routing import build_routing_matrix

    window, routes, kwargs, _ = record_window.load()
    for alpha in BIT_ALPHAS:
        d = decide(window, routes, **dict(kwargs, utility=AlphaFairUtility(alpha=alpha)))
        estimates = [dataclasses.astuple(estimate) for estimate in d.link_estimates.values()]
        yield f"decide/alpha={alpha}", [
            estimates, d.conflict_graph.adjacency, d.region.extreme_points,
            dataclasses.astuple(d.optimization), d.target_outputs_bps, d.input_rates_bps,
        ]
    region = decide(window, routes, **kwargs).region
    routing = build_routing_matrix(routes, links=region.links)
    yield "decide/programs", _programs(region, routing, BIT_ALPHAS)


def probe_shapes():
    """Every program on each degenerate shape (alpha 3 included), then with
    the Newton step budget cut to 1 and to 4: one digest per shape and
    budget, so a declared move of one shape hides no other."""
    import repro.core.optimizer as optimizer_module
    from core.shapes import DEGENERATE_SHAPES

    for name, shape in DEGENERATE_SHAPES.items():
        yield f"shapes/{name}", _programs(*shape(), BIT_ALPHAS + [3.0])
    budget = optimizer_module._MAX_NEWTON_STEPS
    for steps in (1, 4):
        optimizer_module._MAX_NEWTON_STEPS = steps
        try:
            shapes = {name: _programs(*shape(), BIT_ALPHAS)
                      for name, shape in DEGENERATE_SHAPES.items()}
        finally:
            optimizer_module._MAX_NEWTON_STEPS = budget
        for name, programs in shapes.items():
            yield f"shapes/steps={steps}/{name}", programs


def probe_regions():
    """60 seeded regions: 2-6 links, random conflicts and capacities, 1-4
    flows over 1-3 links each."""
    from core.shapes import link_list, make_region, routing_of

    rng = np.random.default_rng(22)
    programs = []
    for _ in range(60):
        links = link_list(int(rng.integers(2, 7)))
        pairs = [(a, b) for i, a in enumerate(links) for b in links[i + 1 :]]
        conflicts = [pair for pair in pairs if rng.random() < 0.5]
        capacities = dict(zip(links, rng.uniform(0.2e6, 6e6, len(links))))
        matrix = np.zeros((len(links), int(rng.integers(1, 5))))
        for flow in range(matrix.shape[1]):
            hops = int(rng.integers(1, min(3, len(links)) + 1))
            matrix[rng.choice(len(links), hops, replace=False), flow] = 1.0
        region = make_region(links, capacities, conflicts)
        programs.append(_programs(region, routing_of(region, matrix), BIT_ALPHAS))
    yield "regions", programs


def probe_non_dominated_rows():
    """Point sets of 0-8 rows and 0-5 links over 0, -0, 1, 2.5, 1e-300,
    +-inf and NaN, and two-valued (Eq. (4)-shaped) ones."""
    from repro.core.extreme_points import non_dominated_rows

    values = np.array([0.0, -0.0, 1.0, 2.5, 1e-300, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(4)
    kept = []
    with np.errstate(invalid="ignore"):
        for draw in range(400):
            shape = (int(rng.integers(0, 9)), int(rng.integers(0, 6)))
            if draw % 2:
                points = np.where(rng.random(shape) < 0.5, 0.0, rng.choice(values[2:5], shape[1]))
            else:
                points = rng.choice(values, shape)
            kept.append(non_dominated_rows(points))
    yield "non_dominated_rows", kept


def probe_estimator():
    """Seeded §5.3 batches: 40 of mixed lengths (1-250 probes, i.i.d. or
    with a burst, all lost or none), and 32 directions of one length at
    every count width; each mixed series alone, with its curve and fit."""
    from repro.core.loss_estimator import estimate_channel_loss_rate, estimate_channel_loss_rates
    from repro.core.loss_estimator import stack_series

    rng = np.random.default_rng(53)
    mixed = []
    for _ in range(40):
        mixed.append([])
        for size in rng.integers(1, 251, int(rng.integers(1, 7))):
            series = (rng.random(size) < rng.choice([0.0, 0.02, 0.1, 0.3, 0.6, 1.0])).astype(int)
            start, stop = np.sort(rng.integers(0, size + 1, 2))
            series[start:stop] |= rng.random(stop - start) < rng.choice([0.0, 0.5, 1.0])
            mixed[-1].append(series)
    equal = []
    for total in (10, 40, 80, 127, 128, 200, 300):
        batch = (rng.random((32, total)) < rng.choice([0.0, 0.02, 0.1, 0.4], (32, 1))).astype(int)
        for series in batch:
            start = int(rng.integers(0, total))
            series[start : start + int(rng.integers(0, total // 2 + 1))] = 1
        equal.append(list(batch))
    batches = [stack_series(batch) for batch in mixed + equal]
    yield "estimator/batches", [[*batch, *estimate_channel_loss_rates(*batch)] for batch in batches]
    yield "estimator/series", [
        dataclasses.astuple(estimate_channel_loss_rate(s)) for batch in mixed for s in batch
    ]


def probe_eq6():
    """Eq. (6) over a loss grid with every backoff-stage edge, vector and
    scalar: three MAC configurations, two rates, three payloads."""
    from repro.core.capacity import CapacityModel, max_udp_throughputs_bps
    from repro.mac.constants import DEFAULT_MAC_CONFIG, MacConfig
    from repro.phy.radio import RATE_1MBPS, RATE_11MBPS

    out = []
    macs = [DEFAULT_MAC_CONFIG, MacConfig(cw_min=15, cw_max=255), MacConfig(cw_min=63, cw_max=63)]
    for mac in macs:
        edges = 1.0 - 1.0 / np.arange(1.0, mac.max_backoff_stage + 3)
        around = [np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)]
        grid = np.concatenate([[0.0, 0.999999, 0.5, 0.9, 0.99], np.linspace(0, 0.999, 334)])
        grid = np.concatenate([grid, *around])
        grid = grid[(grid >= 0.0) & (grid < 1.0)]
        for payload in (64, 1460, 1470):
            for model in (CapacityModel(payload, rate, mac) for rate in (RATE_1MBPS, RATE_11MBPS)):
                out.append(max_udp_throughputs_bps(grid, model.cycle_time_s(), payload, mac))
                out.append([model.max_udp_throughput_bps(p) for p in grid.tolist()])
    yield "eq6", out


def probe_cliques():
    """Bron–Kerbosch on 60 seeded random graphs of 1-24 vertices, integers
    and link tuples: the cliques and independent sets, in order."""
    from repro.core.cliques import adjacency_from_edges, maximal_cliques, maximal_independent_sets

    rng = np.random.default_rng(9)
    out = []
    for draw in range(60):
        size = int(rng.integers(1, 25))
        name = (lambda v: (v % 7, v)) if draw % 2 else int
        edges = np.argwhere(np.triu(rng.random((size, size)) < rng.uniform(0.05, 0.95), k=1))
        vertices = [name(v) for v in range(size)]
        adjacency = adjacency_from_edges(vertices, [tuple(map(name, e)) for e in edges.tolist()])
        for enumerate_sets in (maximal_cliques, maximal_independent_sets):
            out.append([sorted(map(repr, members)) for members in enumerate_sets(adjacency)])
    yield "cliques", out


def _window(window):
    return [window.links, [rate.name for rate in window.rates], window.losses,
            window.losses.flags.writeable, window.lengths, window.nodes, window.ack_loss,
            repr(window.mac_config)]


def probe_probe_window():
    """Live window reads: the ``controller_dense`` cell after its warm-up at
    ``last_n`` 1, 40, 80 and 10^6, and a 3-node chain before and after
    20 s of probing."""
    from core.golden import record_window
    from repro.sim.network import MeshNetwork
    from repro.sim.topology import chain_topology, no_shadowing_propagation

    controller = record_window.build_live()
    try:
        for last_n in (1, 40, 80, 10**6):
            window = controller.network.probe_window(controller.links, last_n)
            yield f"probe_window/last_n={last_n}", _window(window)
    finally:
        controller.network.close()
    net = MeshNetwork(chain_topology(3, spacing_m=60.0), seed=21,
                      propagation=no_shadowing_propagation(), data_rate_mbps=11)
    try:
        links = [(0, 1), (1, 2), (1, 0), (2, 1)]
        net.enable_probing(period_s=0.5, start=False)
        windows = [_window(net.probe_window(links, 80))]
        net.probing.start()
        net.run(20.0)
        windows += [_window(net.probe_window(links, last_n)) for last_n in (12, 200)]
        yield "probe_window/chain", windows
    finally:
        net.close()


PROBES = {
    name[len("probe_") :]: probe
    for name, probe in list(globals().items())
    if name.startswith("probe_") and callable(probe)
}


# -------------------------------------------------------------------- check
def _git(*args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
    return None if done.returncode else done.stdout.strip()


def base_commit() -> tuple[str | None, str]:
    """``(sha, how it was chosen)``, or ``(None, why there is none)``."""
    if shutil.which("git") is None:
        return None, "git is not installed"
    if Path(_git("rev-parse", "--show-toplevel") or "/").resolve() != REPO:
        return None, f"{REPO} is not the top of a git checkout"
    changed = bool(_git("status", "--porcelain", "--", "src"))
    ref = "HEAD" if changed else "HEAD~1"
    sha = _git("rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}")
    if not sha:
        return None, f"no base commit: {ref} is not in this clone's history"
    if not changed and _git("diff", "--quiet", sha, "HEAD", "--", "src") is not None:
        return None, f"src/ is the same at HEAD and at its parent {sha[:12]}"
    how = "the working tree's src/ differs from HEAD" if changed else "HEAD is committed"
    return sha, f"base {ref} ({sha[:12]}): {how}"


def start_probes(src: Path, groups=()) -> subprocess.Popen:
    """This script's ``--probe`` run on ``src``, started."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", str(src), *groups]
    return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def read_probes(run: subprocess.Popen) -> dict[str, str]:
    out, err = run.communicate(timeout=600)
    if run.returncode:
        raise RuntimeError(f"the probe script failed on {run.args[3]}:\n{err}")
    return dict(line.split("\t") for line in out.splitlines())


def check() -> tuple[str | None, list[str]]:
    """``(how the base was chosen, the probes that moved undeclared)``, or
    ``(None, [why the check skipped])``."""
    sha, how = base_commit()
    if sha is None:
        return None, [how]
    with tempfile.TemporaryDirectory(prefix="parent-bits-") as scratch:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", sha, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", scratch], input=archive, check=True)
        runs = [start_probes(Path(scratch) / "src"), start_probes(REPO / "src")]
        base, work = map(read_probes, runs)
    differ = [n for n in sorted(base.keys() | work.keys()) if base.get(n) != work.get(n)]
    entries = json.loads(MOVED.read_text(encoding="utf-8")).get(sha, [])
    declared = [n for n in differ if any(n == e or n.startswith(e + "/") for e in entries)]
    if declared:
        how += f"; declared moves: {', '.join(declared)}"
    return how, [n for n in differ if n not in declared]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--probe"]:
        sys.path.insert(0, argv[1])
        import repro

        assert Path(repro.__file__).resolve().is_relative_to(Path(argv[1]).resolve())
        for group in argv[2:] or PROBES:
            for name, value in PROBES[group]():
                digest = hashlib.sha256()
                _feed(digest, value)
                print(f"{name}\t{digest.hexdigest()}", flush=True)
        return 0
    how, moved = check()
    if how is None:
        print(f"parent bits: skipped, {moved[0]}")
        return 0
    print(f"parent bits: {how}")
    print("".join(f"  moved: {name}\n" for name in moved), end="")
    print("parent bits: " + ("moved" if moved else "no probe moved undeclared"))
    return int(bool(moved))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
