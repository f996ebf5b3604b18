"""Workload-independent timings of single layers, through public calls.

Every traced run executes all of these with identical work, whatever its
workload: they are the ledger's fixed points (what one kernel dispatch,
one frame on an idle medium, one cache put, one broker round trip cost
in isolation), against which the workload-derived span and site numbers
are read.  Each function returns ``{metric name: value}``.
"""

from __future__ import annotations

import json
import uuid
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core import (
    PROPORTIONAL_FAIR,
    ConflictGraph,
    FeasibilityRegion,
    PairwiseInterferenceMap,
    RateOptimizer,
)
from repro.engine import Simulator
from repro.experiment import (
    ExperimentSpec,
    ResultCache,
    SweepPlanner,
    run_experiment,
    seed_sweep,
    spec_digest,
)
from repro.experiment.backends import BrokerClient, TASKS_DIR, ensure_queue_dirs, task_envelope
from repro.experiment.broker import BrokerQueue, start_broker
from repro.experiment.broker_store import BrokerStore
from repro.experiment.worker import FileQueueClient
from repro.mac.frames import BROADCAST_ADDR, Frame, FrameKind
from repro.net.routing import FlowRoute, RoutingMatrix
from repro.phy.error_models import BerPacketErrorModel
from repro.phy.radio import rate_from_mbps
from repro.sim import MeshNetwork, chain_topology, grid_topology, testbed_positions

from ledger_sweep import TINY_SPEC
from ledger_tracing import median


def _reps(full: int, scale: float, least: int = 1) -> int:
    return max(least, int(round(full * scale)))


# -------------------------------------------------------- engine, scheduler
def _dispatch_rate(events: int, scheduler: str | None) -> float:
    """Self-rescheduling no-op callbacks through one simulator."""
    sim = Simulator(scheduler=scheduler)
    remaining = events

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sim.schedule(1e-6, tick)

    sim.schedule(1e-6, tick)
    start = perf_counter()
    sim.run()
    return events / (perf_counter() - start)


def _mixed_horizon_rate(events: int, scheduler: str) -> float:
    """The DCF / probe / RTO mix: 64 concurrent timer chains whose next
    delay is 10 us-1 ms (70%), 0.5 s (25%) or 1.5-3 s, beyond the
    calendar's one-second horizon (5%); one event in five is a timer that
    is armed and cancelled before it fires."""
    rng = np.random.default_rng(12345)
    kind = rng.random(events)
    delays = np.where(
        kind < 0.70,
        rng.uniform(10e-6, 1e-3, events),
        np.where(kind < 0.95, 0.5, rng.uniform(1.5, 3.0, events)),
    ).tolist()
    cancel = (rng.random(events) < 0.25).tolist()  # 0.25 / 1.25 = one in five
    sim = Simulator(scheduler=scheduler)
    cursor = 0

    def noop() -> None:
        pass

    def tick() -> None:
        nonlocal cursor
        i = cursor
        if i >= events:
            return
        cursor = i + 1
        sim.schedule(delays[i], tick)
        if cancel[i]:
            sim.schedule(delays[i], noop).cancel()

    for _ in range(64):
        sim.schedule(0.0, tick)
    start = perf_counter()
    sim.run()
    return sim.processed_events / (perf_counter() - start)


def engine_and_scheduler(scale: float) -> dict[str, float]:
    events = _reps(200_000, scale, 2_000)

    def best(fn: Callable[[], float], full_reps: int) -> float:
        return max(fn() for _ in range(_reps(full_reps, scale)))

    return {
        "engine.dispatch_events_per_s": best(lambda: _dispatch_rate(events, None), 5),
        "scheduler.calendar_events_per_s": best(lambda: _dispatch_rate(events, "calendar"), 3),
        "scheduler.heap_events_per_s": best(lambda: _dispatch_rate(events, "heap"), 3),
        "scheduler.mixed_horizon_events_per_s": best(
            lambda: _mixed_horizon_rate(events // 2, "calendar"), 3
        ),
        "scheduler.heap_mixed_horizon_events_per_s": best(
            lambda: _mixed_horizon_rate(events // 2, "heap"), 3
        ),
    }


# ------------------------------------------------------------------ mac, phy
class _StubMac:
    """The smallest ``MacListener``: hears everything, does nothing."""

    def on_medium_busy(self) -> None:
        pass

    def on_medium_idle(self) -> None:
        pass

    def on_frame_received(self, frame: Frame, from_id: int) -> None:
        pass

    def on_transmission_end(self, frame: Frame) -> None:
        pass


def _tx_us(unicast: bool, count: int) -> float:
    """begin_transmission -> end of frame on an otherwise idle medium."""
    from repro.mac.medium import WirelessMedium

    sim = Simulator(seed=1)
    positions = testbed_positions(seed=7)
    medium = WirelessMedium(sim, positions)
    for node in positions:
        medium.register_mac(node, _StubMac())
    nodes = sorted(positions)
    rate = rate_from_mbps(11)
    start = perf_counter()
    for i in range(count):
        tx = nodes[i % len(nodes)]
        frame = Frame(
            kind=FrameKind.DATA if unicast else FrameKind.BROADCAST,
            src=tx,
            dst=nodes[(i + 1) % len(nodes)] if unicast else BROADCAST_ADDR,
            size_bytes=1500,
            rate=rate,
        )
        medium.begin_transmission(tx, frame)
        sim.run()
    return 1e6 * (perf_counter() - start) / count


def _saturated_rate(sim_seconds: float) -> float:
    net = MeshNetwork(chain_topology(5), seed=3)
    net.add_udp_flow([0, 1, 2, 3, 4]).start()
    net.add_udp_flow([4, 3, 2]).start()
    start = perf_counter()
    net.run(sim_seconds)
    return net.sim.processed_events / (perf_counter() - start)


def mac_and_phy(scale: float) -> dict[str, float]:
    builds = []
    for _ in range(_reps(10, scale)):
        start = perf_counter()
        MeshNetwork(testbed_positions(seed=7), seed=1)
        builds.append(perf_counter() - start)

    grid = grid_topology(4, 4)
    net = MeshNetwork(grid, seed=1)
    rng = np.random.default_rng(7)
    moves = []
    for _ in range(_reps(200, scale, 3)):
        moved = {n: (x + rng.normal(0, 2.0), y + rng.normal(0, 2.0)) for n, (x, y) in grid.items()}
        start = perf_counter()
        net.update_positions(moved)
        moves.append(perf_counter() - start)

    model = BerPacketErrorModel()
    rate = rate_from_mbps(11)
    snrs = np.linspace(2.0, 40.0, _reps(20_000, scale, 100)).tolist()
    start = perf_counter()
    for snr in snrs:  # distinct SNRs: every call misses the model's memo
        model.packet_error_probability(snr, rate, 1500)
    per_us = 1e6 * (perf_counter() - start) / len(snrs)

    tx_count = _reps(2_000, scale, 20)
    return {
        "mac.medium_build_ms": 1e3 * median(builds),
        "mac.update_positions_ms": 1e3 * median(moves),
        "mac.tx_unicast_us": _tx_us(True, tx_count),
        "mac.tx_broadcast_us": _tx_us(False, tx_count),
        "mac.saturated_events_per_s": max(
            _saturated_rate(2.0 * max(scale, 0.05)) for _ in range(_reps(10, scale))
        ),
        "phy.error_model_us": per_us,
    }


# ---------------------------------------------------------------- transport
def _onehop_rate(transport: str, sim_seconds: float) -> float:
    net = MeshNetwork({0: (0.0, 0.0), 1: (40.0, 0.0)}, seed=5)
    flow = net.add_tcp_flow([0, 1]) if transport == "tcp" else net.add_udp_flow([0, 1])
    flow.start()
    start = perf_counter()
    net.run(sim_seconds)
    return net.sim.processed_events / (perf_counter() - start)


def transport(scale: float) -> dict[str, float]:
    sim_seconds = 5.0 * max(scale, 0.02)
    return {
        "transport.tcp_onehop_events_per_s": _onehop_rate("tcp", sim_seconds),
        "transport.udp_onehop_events_per_s": _onehop_rate("udp", sim_seconds),
    }


# --------------------------------------------------------------------- core
def synthetic200(scale: float) -> dict[str, float]:
    """The 24-link, ~200-extreme-point conflict graph of
    ``benchmarks/test_tab_optimizer_cost.py`` (Section 6.1's worst case)."""
    num_links, num_flows, links_per_flow = 24, 6, 3
    rng = np.random.default_rng(42)
    links = [(2 * i, 2 * i + 1) for i in range(num_links)]
    interference = PairwiseInterferenceMap(links)
    for i in range(num_links):
        for j in range(i + 1, num_links):
            if rng.random() < 0.55:
                interference.add_conflict(links[i], links[j])
    graph = ConflictGraph.from_interference_map(interference)
    capacities = {link: float(rng.uniform(0.8e6, 6e6)) for link in links}
    region_s, solve_s = [], []
    for _ in range(_reps(3, scale)):
        start = perf_counter()
        region = FeasibilityRegion.from_capacities_and_conflicts(capacities, graph)
        region_s.append(perf_counter() - start)
        matrix = np.zeros((region.num_links, num_flows))
        flows = []
        for f in range(num_flows):
            used = [(3 * f + k) % region.num_links for k in range(links_per_flow)]
            matrix[used, f] = 1.0
            first, last = region.links[used[0]], region.links[used[-1]]
            flows.append(FlowRoute(f, first[0], last[1], [first[0], last[1]]))
        routing = RoutingMatrix(links=list(region.links), flows=flows, matrix=matrix)
        start = perf_counter()
        RateOptimizer(region, routing, PROPORTIONAL_FAIR).solve()
        solve_s.append(perf_counter() - start)
    return {
        "core.synthetic200_region_ms": 1e3 * median(region_s),
        "core.synthetic200_solve_ms": 1e3 * median(solve_s),
    }


# --------------------------------------------------------------- experiment
def _per_call(fn: Callable[[], object], count: int) -> float:
    start = perf_counter()
    for _ in range(count):
        fn()
    return (perf_counter() - start) / count


def experiment_fixed_costs(scale: float, work_dir: Path) -> dict[str, float]:
    """Spec and result plumbing, planning, and the cache, at the sweep's size."""
    from dataclasses import replace

    near_zero = replace(TINY_SPEC, cycle_measure_s=1e-6, settle_s=0.0)
    run_fixed = [
        _per_call(lambda: run_experiment(near_zero, keep_decisions=False, cache=False), 1)
        for _ in range(_reps(20, scale, 2))
    ]
    result = run_experiment(TINY_SPEC, keep_decisions=False, cache=False)
    payload = result.to_dict()
    spec_payload = TINY_SPEC.to_dict()
    count = _reps(300, scale, 5)
    metrics = {
        "experiment.run_fixed_ms": 1e3 * median(run_fixed),
        "experiment.spec_digest_us": 1e6 * _per_call(lambda: spec_digest(spec_payload), count),
        "experiment.spec_roundtrip_us": 1e6
        * _per_call(lambda: ExperimentSpec.from_dict(TINY_SPEC.to_dict()), count),
        "experiment.result_serialize_us": 1e6
        * _per_call(lambda: json.dumps(result.to_dict(), sort_keys=True), count),
    }

    # 96 distinct specs sharing one stored payload: the cache and the
    # planner only see keys and bytes, so no cell needs simulating.
    payloads = [spec.to_dict() for spec in seed_sweep(TINY_SPEC, range(96))]
    cache = ResultCache(work_dir / f"micro-cache-{uuid.uuid4().hex[:8]}")
    start = perf_counter()
    for spec in payloads:
        cache.put_payload(spec, payload, flush=False)
    metrics["experiment.cache_put_ms"] = 1e3 * (perf_counter() - start) / len(payloads)
    metrics["experiment.cache_flush_ms"] = 1e3 * median(
        [_per_call(cache.flush, 1) for _ in range(_reps(10, scale, 2))]
    )
    start = perf_counter()
    for spec in payloads:
        cache.get_payload(spec)
    metrics["experiment.cache_get_ms"] = 1e3 * (perf_counter() - start) / len(payloads)
    plans = _reps(10, scale, 2)
    metrics["experiment.plan_cold_ms"] = 1e3 * median(
        [_per_call(lambda: SweepPlanner(None).plan(payloads), 1) for _ in range(plans)]
    )
    metrics["experiment.plan_warm_ms"] = 1e3 * median(
        [_per_call(lambda: SweepPlanner(cache).plan(payloads), 1) for _ in range(plans)]
    )
    return metrics


def _queue_us_per_task(queue: BrokerQueue, tasks: int) -> float:
    """submit -> claim -> result -> collect(+ack) -> cancel, in process."""
    job = uuid.uuid4().hex[:12]
    envelopes = [task_envelope(f"{job}-{i:05d}", {"n": i}) for i in range(tasks)]
    start = perf_counter()
    queue.submit(envelopes)
    while True:
        claimed = queue.claim(match=f"{job}-", worker="ledger")
        if claimed is None:
            break
        queue.result({"id": claimed["id"], "result": {"n": 0}, "attempts": 0})
    got = queue.collect(match=f"{job}-")["results"]
    queue.collect(match=f"{job}-", ack=[str(r["id"]) for r in got])
    queue.cancel([e["id"] for e in envelopes])
    return 1e6 * (perf_counter() - start) / tasks


def queue_transports(scale: float, work_dir: Path) -> dict[str, float]:
    """The three queue cores without any worker process: the broker's
    state machine bare and journaled, the file queue's claim/complete,
    and one HTTP round trip."""
    tasks = _reps(200, scale, 5)
    store = BrokerStore(work_dir / f"micro-store-{uuid.uuid4().hex[:8]}")
    try:
        metrics = {
            "experiment.broker_queue_us_per_task": _queue_us_per_task(BrokerQueue(), tasks),
            "experiment.journal_us_per_task": _queue_us_per_task(BrokerQueue(store=store), tasks),
        }
    finally:
        store.close()

    root = ensure_queue_dirs(work_dir / f"micro-queue-{uuid.uuid4().hex[:8]}")
    for i in range(tasks):
        envelope = task_envelope(f"micro-{i:05d}", {"n": i})
        (root / TASKS_DIR / f"{envelope['id']}.json").write_text(
            json.dumps(envelope), encoding="utf-8"
        )
    client = FileQueueClient(root, match="micro-")
    start = perf_counter()
    while True:
        claim = client.claim()
        if claim is None:
            break
        envelope, token = claim
        client.complete(token, {"id": envelope["id"], "result": {"n": 0}, "attempts": 0})
    metrics["experiment.file_queue_us_per_task"] = 1e6 * (perf_counter() - start) / tasks

    server = start_broker()
    try:
        http = BrokerClient(server.url)
        rtts = [_per_call(http.stats, 1) for _ in range(_reps(300, scale, 5))]
        http.close()
    finally:
        server.shutdown()
        server.server_close()
    metrics["experiment.broker_rtt_ms"] = 1e3 * median(rtts)
    return metrics


def run_all(scale: float, work_dir: Path) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for part in (
        engine_and_scheduler,
        mac_and_phy,
        transport,
        synthetic200,
        lambda s: experiment_fixed_costs(s, work_dir),
        lambda s: queue_transports(s, work_dir),
    ):
        metrics.update(part(scale))
    return metrics
