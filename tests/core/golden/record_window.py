"""A recorded probe window: the one controller input that reaches the
Section 5.3 estimator.

Every experiment golden warms probing up for 5-8 s at 0.5 s a probe, so
its windows hold 10-16 probes, below ``min_probes_for_estimator`` (40):
they all take the raw-mean path.  This fixture records the window of the
``controller_dense`` state instead — ``random_multiflow``, UDP, 12 flows
at 11 Mb/s, topology seed 7, run seed 1000, 45 s of probing, a window of
80 probes — whose 16 links hold 80-probe series in both directions and
go through the estimator in both of its cases.

``controller_dense_window.json`` holds the window, the flows' routes,
the controller settings and the targets ``decide`` pinned at its
1e-3 b/s grain.  ``tests/core/test_recorded_window.py`` reloads it with
:func:`load` and builds the live cell with :func:`build_live` (about two
seconds).  When a deliberate change moves the window or the decision,
regenerate and commit the JSON with the change::

    PYTHONPATH=src python tests/core/golden/record_window.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.core import AlphaFairUtility, OnlineOptimizer, decide
from repro.core.controller import LinkProbes, ProbeWindow
from repro.experiment import (
    ControllerSpec,
    ExperimentSpec,
    ProbingSpec,
    ScenarioSpec,
    build_scenario,
)
from repro.mac.constants import MacConfig
from repro.net.routing import FlowRoute
from repro.phy.radio import rate_from_mbps

PATH = Path(__file__).resolve().parent / "controller_dense_window.json"

SPEC = ExperimentSpec(
    scenario=ScenarioSpec(
        scenario="random_multiflow",
        transport="udp",
        seed=7,
        run_seed=1000,
        num_flows=12,
        rate_mode="11",
    ),
    probing=ProbingSpec(warmup_s=45.0),
    controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
)


def build_live() -> OnlineOptimizer:
    """The cell after its probing warm-up, with the controller the runner
    would build; the caller closes ``controller.network``."""
    scenario = build_scenario(SPEC.scenario)
    network, c = scenario.network, SPEC.controller
    network.enable_probing(
        period_s=SPEC.probing.period_s, data_probe_bytes=SPEC.probing.data_probe_bytes
    )
    network.run(SPEC.probing.warmup_s)
    return OnlineOptimizer(
        network,
        scenario.flows,
        utility=c.utility,
        probing_window=c.probing_window,
        payload_bytes=c.payload_bytes,
        connectivity_threshold=c.connectivity_threshold,
        min_probes_for_estimator=c.min_probes_for_estimator,
    )


def settings(controller: OnlineOptimizer) -> dict:
    """The keyword arguments of :func:`decide` ``controller`` runs with."""
    return {
        "utility": controller.utility,
        "payload_bytes": controller.payload_bytes,
        "connectivity_threshold": controller.connectivity_threshold,
        "min_probes_for_estimator": controller.min_probes_for_estimator,
    }


def _series(bits: str) -> np.ndarray:
    return np.array([int(bit) for bit in bits], dtype=int)


def load(path: Path = PATH) -> tuple[ProbeWindow, list[FlowRoute], dict, dict[int, float]]:
    """``(window, routes, decide keyword arguments, pinned targets)``."""
    record = json.loads(path.read_text(encoding="utf-8"))
    probes = {
        tuple(link["link"]): LinkProbes(
            rate_from_mbps(link["rate_mbps"]), _series(link["data"]), _series(link["ack"])
        )
        for link in record["links"]
    }
    ack_loss_rates = {(tx, rx): loss for tx, rx, loss in record["ack_loss_rates"]}
    nodes = sorted({node for pair in [*ack_loss_rates, *probes] for node in pair})
    index = {node: i for i, node in enumerate(nodes)}
    ack_loss = np.full((len(nodes), len(nodes)), np.nan)
    for (tx, rx), loss in ack_loss_rates.items():
        ack_loss[index[tx], index[rx]] = loss
    window = ProbeWindow.from_probes(probes, nodes, ack_loss, MacConfig(**record["mac_config"]))
    routes = [
        FlowRoute(flow_id=fid, source=path[0], destination=path[-1], path=path)
        for fid, path in record["routes"]
    ]
    kwargs = dict(record["settings"], utility=AlphaFairUtility(record["settings"]["utility"]))
    targets = {int(fid): target for fid, target in record["target_outputs_bps"].items()}
    return window, routes, kwargs, targets


def record(controller: OnlineOptimizer) -> dict:
    """The JSON document of ``controller``'s current window and decision."""
    window = controller.network.probe_window(controller.links, controller.probing_window)
    routes = controller._flow_routes()
    kwargs = settings(controller)
    decision = decide(window, routes, **kwargs)
    return {
        "spec": SPEC.to_dict(),
        "settings": dict(kwargs, utility=kwargs["utility"].alpha),
        "mac_config": dataclasses.asdict(window.mac_config),
        "links": [
            {
                "link": list(link),
                "rate_mbps": p.rate.bps / 1e6,
                "data": "".join(map(str, p.data)),
                "ack": "".join(map(str, p.ack)),
            }
            for link, p in window.probes.items()
        ],
        "ack_loss_rates": [[tx, rx, loss] for (tx, rx), loss in window.ack_loss_rates.items()],
        "routes": [[route.flow_id, route.path] for route in routes],
        "target_outputs_bps": {str(f): y for f, y in decision.target_outputs_bps.items()},
    }


def main() -> None:
    controller = build_live()
    try:
        document = record(controller)
    finally:
        controller.network.close()
    PATH.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH.name}: {len(document['links'])} links")


if __name__ == "__main__":
    main()
