"""Scenario dynamics: mobility trajectories, churn schedules and
SNR-threshold rate adaptation.

The paper's contribution is an *online* optimizer for a live mesh — its
measurement/re-optimization loop only earns its keep when the network
changes underneath it.  This module supplies the three dynamics axes a
``generated`` scenario can declare (:class:`repro.experiment.specs.MobilitySpec`,
:class:`~repro.experiment.specs.ChurnSpec`, the ``rate_adaptation``
radio profile) and the :class:`DynamicsDriver` that plays them out
against a built :class:`~repro.sim.network.MeshNetwork`:

* **Mobility models** are registered trajectory builders
  (:func:`register_mobility`).  A trajectory advances node positions one
  *position epoch* at a time; each epoch the driver pushes the nodes
  that actually moved through :meth:`MeshNetwork.update_positions`,
  which rebuilds only the affected power-table rows/columns of the
  medium and clears its reception memo.
* **Churn schedules** (:func:`generate_churn_schedule`) are seeded
  fail/join event lists; the driver applies them via
  :meth:`MeshNetwork.fail_node` / :meth:`MeshNetwork.revive_node`,
  which quiesce or revive the node's MAC deterministically.
* **Rate adaptation** (:func:`apply_rate_adaptation`) re-selects every
  directed link's modulation from its current SNR — at build time and
  again after every position epoch — using the same 24 dB 1↔11 Mb/s
  threshold the ``mixed`` static assignment centres on.

Determinism discipline: trajectory and churn randomness come from
model-private ``rng_spawn_key`` streams seeded by the scenario ``seed``
(the same convention as topology placement and workload draws), never
from the simulator's streams.  A static scenario constructs no driver,
schedules no events and draws nothing extra — which is what lets the
pre-existing byte-identity goldens prove dynamics support costs static
runs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping

import numpy as np

from repro.engine import named_rng
from repro.registry import Registry
from repro.sim.generators import RATE_ADAPTATION_SNR_DB, apply_rate_adaptation
from repro.sim.network import MeshNetwork
from repro.sim.topology import bounding_box

Positions = dict[int, tuple[float, float]]

__all__ = [
    "ChurnEvent",
    "DynamicsDriver",
    "Trajectory",
    "RATE_ADAPTATION_SNR_DB",
    "apply_rate_adaptation",
    "build_mobility",
    "generate_churn_schedule",
    "mobility_names",
    "mobility_rng",
    "register_mobility",
]


# ---------------------------------------------------------------------------
# Mobility model registry
# ---------------------------------------------------------------------------
class Trajectory:
    """One scenario's mobility state: positions advanced epoch by epoch.

    ``step()`` advances every node by one position epoch and returns the
    complete placement after the move.  Implementations must be
    deterministic — same seed, same call sequence, same positions — and
    must iterate nodes in sorted-id order so their draw order is a pure
    function of the node set.
    """

    #: Registered model name (set by :func:`build_mobility`).
    model: str = ""

    def step(self) -> Positions:
        raise NotImplementedError


MobilityBuilder = Callable[[Positions, Mapping[str, Any], int], Trajectory]

MOBILITY_MODELS: Registry[MobilityBuilder] = Registry("mobility model")

#: ``@register_mobility(name, description=...)`` registers
#: ``builder(positions, params, seed) -> Trajectory``.  ``params`` is the
#: plain-dict form of :meth:`repro.experiment.specs.MobilitySpec.params`
#: (builders read the keys they care about), so a registered model is
#: immediately drivable from a serialized spec.
register_mobility = MOBILITY_MODELS.register
mobility_names = MOBILITY_MODELS.names


def mobility_rng(model: str, seed: int) -> np.random.Generator:
    """The model-private stream ``"mobility.<model>"`` of ``seed``
    (:func:`repro.engine.named_rng`): trajectories never share draws with
    workloads, topologies or the simulation kernel."""
    return named_rng(seed, f"mobility.{model}")


def build_mobility(
    model: str, positions: Positions, params: Mapping[str, Any] | None = None,
    seed: int = 0,
) -> Trajectory:
    """Build a trajectory for ``positions`` via the registered ``model``."""
    build = MOBILITY_MODELS.lookup(model)
    trajectory = build(dict(positions), dict(params or {}), seed)
    trajectory.model = model
    return trajectory


# ---------------------------------------------------------------------------
# Built-in mobility models
# ---------------------------------------------------------------------------
# The ``params.get`` defaults below are the library-level defaults of
# :func:`build_mobility` for callers that pass a partial dict; a
# ``MobilitySpec`` always passes every parameter.
@register_mobility(
    "waypoint",
    description="random waypoint inside the initial bounding box plus margin",
)
class _WaypointTrajectory(Trajectory):
    def __init__(self, positions: Positions, params: Mapping[str, Any], seed: int) -> None:
        self._order = sorted(positions)
        self._pos = {node: positions[node] for node in self._order}
        self._box = bounding_box(positions, params.get("area_margin_m", 25.0))
        self._epoch_s = params.get("epoch_s", 1.0)
        self._speed = params.get("speed_mps", 1.5)
        self._pause_s = params.get("pause_s", 0.0)
        self._rng = mobility_rng("waypoint", seed)
        self._target: dict[int, tuple[float, float] | None] = {
            node: None for node in self._order
        }
        self._pause_left: dict[int, float] = {node: 0.0 for node in self._order}

    def _draw_target(self) -> tuple[float, float]:
        x_min, x_max, y_min, y_max = self._box
        return (
            float(self._rng.uniform(x_min, x_max)),
            float(self._rng.uniform(y_min, y_max)),
        )

    def step(self) -> Positions:
        speed = self._speed
        for node in self._order:
            if speed <= 0.0:
                break
            remaining = self._epoch_s
            x, y = self._pos[node]
            # A node can pause, arrive and re-target several times within
            # one epoch; the leg count is bounded to keep a degenerate
            # geometry (zero-length legs with no pause) from spinning.
            for _ in range(64):
                if remaining <= 1e-12:
                    break
                pause = self._pause_left[node]
                if pause > 0.0:
                    used = min(pause, remaining)
                    self._pause_left[node] = pause - used
                    remaining -= used
                    continue
                target = self._target[node]
                if target is None:
                    target = self._draw_target()
                    self._target[node] = target
                dx, dy = target[0] - x, target[1] - y
                dist = (dx * dx + dy * dy) ** 0.5
                reach = speed * remaining
                if reach >= dist:
                    x, y = target
                    remaining -= dist / speed
                    self._target[node] = None
                    self._pause_left[node] = self._pause_s
                else:
                    x += dx * reach / dist
                    y += dy * reach / dist
                    remaining = 0.0
            self._pos[node] = (x, y)
        return dict(self._pos)


@register_mobility(
    "drift",
    description="per-epoch Gaussian displacement clipped to the initial box",
)
class _DriftTrajectory(Trajectory):
    def __init__(self, positions: Positions, params: Mapping[str, Any], seed: int) -> None:
        self._order = sorted(positions)
        self._pos = {node: positions[node] for node in self._order}
        self._box = bounding_box(positions, params.get("area_margin_m", 25.0))
        self._sigma = params.get("drift_sigma_m", 2.0)
        self._rng = mobility_rng("drift", seed)

    def step(self) -> Positions:
        x_min, x_max, y_min, y_max = self._box
        displacements = self._rng.normal(0.0, self._sigma, size=(len(self._order), 2))
        for index, node in enumerate(self._order):
            x, y = self._pos[node]
            x = min(max(x + float(displacements[index, 0]), x_min), x_max)
            y = min(max(y + float(displacements[index, 1]), y_min), y_max)
            self._pos[node] = (x, y)
        return dict(self._pos)


# ---------------------------------------------------------------------------
# Churn schedules
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change: a node fails or (re)joins."""

    time_s: float
    node_id: int
    action: str  # "fail" | "join"


def generate_churn_schedule(
    node_ids: list[int],
    protected: set[int] | frozenset[int] = frozenset(),
    num_events: int = 1,
    start_s: float = 0.0,
    end_s: float = 60.0,
    down_s: float = 10.0,
    seed: int = 0,
) -> list[ChurnEvent]:
    """A seeded fail/join schedule over the non-protected nodes.

    ``num_events`` distinct victims are chosen uniformly without
    replacement from ``sorted(set(node_ids) - protected)`` (capped at the
    candidate count), with failure times uniform in ``[start_s, end_s]``;
    each victim rejoins ``down_s`` seconds after failing unless
    ``down_s`` is 0 (permanent failure).  All randomness comes from the
    private ``"churn"`` stream of ``seed``, and the returned events are
    sorted by ``(time, node, action)`` so the schedule is a pure function
    of the arguments.
    """
    candidates = sorted(set(node_ids) - set(protected))
    count = min(num_events, len(candidates))
    if count <= 0:
        return []
    rng = named_rng(seed, "churn")
    chosen = rng.choice(len(candidates), size=count, replace=False)
    times = rng.uniform(start_s, end_s, size=count)
    events: list[ChurnEvent] = []
    for index, time_s in zip(sorted(int(i) for i in chosen), sorted(float(t) for t in times)):
        node_id = candidates[index]
        events.append(ChurnEvent(time_s=time_s, node_id=node_id, action="fail"))
        if down_s > 0.0:
            events.append(
                ChurnEvent(time_s=time_s + down_s, node_id=node_id, action="join")
            )
    events.sort(key=lambda event: (event.time_s, event.node_id, event.action))
    return events


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
class DynamicsDriver:
    """Plays a scenario's dynamics out against a built network.

    Installed once after the network (and its flows) are built; it
    schedules

    * a self-rechaining position-epoch event every ``epoch_s`` seconds
      when a trajectory is present — each epoch advances the trajectory,
      pushes the moved nodes through
      :meth:`MeshNetwork.update_positions` and, for adaptive-rate
      scenarios, re-applies :func:`apply_rate_adaptation`;
    * one absolute-time event per :class:`ChurnEvent`, applied via
      :meth:`MeshNetwork.fail_node` / :meth:`MeshNetwork.revive_node`.

    ``meta`` is a JSON-safe dict of the declared schedule plus live
    counters (epochs applied, nodes moved, fails/joins applied); scenario
    builders park it in ``BuiltScenario.meta`` so results record what the
    dynamics actually did.  A driver is only constructed for dynamic
    specs — static scenarios schedule no events and draw nothing, so
    their event sequence (and goldens) are untouched by this subsystem.
    """

    def __init__(
        self,
        network: MeshNetwork,
        trajectory: Trajectory | None = None,
        epoch_s: float = 1.0,
        churn: list[ChurnEvent] | tuple[ChurnEvent, ...] = (),
        rate_adaptation: bool = False,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch_s must be positive")
        self.network = network
        self.trajectory = trajectory
        self.epoch_s = float(epoch_s)
        self.churn = tuple(churn)
        self.rate_adaptation = bool(rate_adaptation)
        self._installed = False
        self.meta: dict[str, Any] = {
            "mobility_model": trajectory.model if trajectory is not None else None,
            "epoch_s": self.epoch_s if trajectory is not None else None,
            "rate_adaptation": self.rate_adaptation,
            "churn_schedule": [
                [event.time_s, event.node_id, event.action] for event in self.churn
            ],
            "epochs_applied": 0,
            "nodes_moved": 0,
            "fails_applied": 0,
            "joins_applied": 0,
        }

    def install(self) -> "DynamicsDriver":
        """Schedule the epoch chain and churn events on the network's sim."""
        if self._installed:
            raise RuntimeError("DynamicsDriver is already installed")
        self._installed = True
        sim = self.network.sim
        if self.trajectory is not None:
            sim.schedule(self.epoch_s, self._on_epoch)
        for event in self.churn:
            sim.schedule_at(event.time_s, partial(self._apply_churn, event))
        return self

    def _on_epoch(self) -> None:
        new_positions = self.trajectory.step()
        current = self.network.positions
        moved = {
            node: point
            for node, point in new_positions.items()
            if point != current[node]
        }
        if moved:
            self.network.update_positions(moved)
            if self.rate_adaptation:
                apply_rate_adaptation(self.network)
        self.meta["epochs_applied"] += 1
        self.meta["nodes_moved"] += len(moved)
        self.network.sim.schedule(self.epoch_s, self._on_epoch)

    def _apply_churn(self, event: ChurnEvent) -> None:
        if event.action == "fail":
            self.network.fail_node(event.node_id)
            self.meta["fails_applied"] += 1
        else:
            self.network.revive_node(event.node_id)
            self.meta["joins_applied"] += 1
