"""Topology factories: interfering link pairs, chains, grids and the
18-node synthetic testbed.

The paper classifies interfering link pairs into three classes (Garetto
et al.):

* **CS** (Carrier Sense) — the two transmitters sense each other and
  time-share the channel;
* **IA** (Information Asymmetry) — the transmitters cannot sense each
  other but one receiver hears the other link's transmitter (classic
  hidden terminal with asymmetric outcomes, capture dependent);
* **NF** (Near-Far) — the transmitters cannot sense each other and each
  receiver hears the other link's transmitter.

The factory functions below place four nodes so that the default
propagation model (log-distance, exponent 3.3, no shadowing) lands the
pair in the requested class; :func:`classify_pair` verifies the class
from the medium's actual carrier-sense relations, which is what the test
suite asserts against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import named_rng
from repro.mac.medium import WirelessMedium
from repro.phy.propagation import LogDistancePathLoss
from repro.phy.radio import RadioConfig


Link = tuple[int, int]
Positions = dict[int, tuple[float, float]]


@dataclass(frozen=True)
class LinkPairTopology:
    """A two-link topology: node positions plus the two directed links.

    Nodes are always numbered 0..3 with link 1 = (0, 1) and link 2 = (2, 3).
    """

    positions: Positions
    link1: Link = (0, 1)
    link2: Link = (2, 3)
    label: str = ""

    @property
    def links(self) -> list[Link]:
        return [self.link1, self.link2]


def no_shadowing_propagation() -> LogDistancePathLoss:
    """The deterministic propagation model used for controlled pair topologies."""
    return LogDistancePathLoss(shadowing_sigma_db=0.0)


# --------------------------------------------------------------------------
# Link-pair factories
# --------------------------------------------------------------------------
def _collinear_pair(label: str, rx1_x: float, tx2_x: float, rx2_x: float) -> LinkPairTopology:
    """Both links on the x-axis: link 1 from the origin to ``rx1_x``,
    link 2 from ``tx2_x`` to ``rx2_x``."""
    xs = (0.0, rx1_x, tx2_x, rx2_x)
    return LinkPairTopology(
        positions={node: (x, 0.0) for node, x in enumerate(xs)}, label=label
    )


def carrier_sense_pair(
    link_len_m: float = 40.0, tx_gap_m: float = 100.0
) -> LinkPairTopology:
    """Two links whose transmitters are within carrier-sense range."""
    return _collinear_pair("CS", link_len_m, tx_gap_m, tx_gap_m + link_len_m)


def information_asymmetry_pair(
    link1_len_m: float = 60.0,
    link2_len_m: float = 50.0,
    tx_gap_m: float = 280.0,
) -> LinkPairTopology:
    """Hidden-terminal pair where only receiver 1 hears transmitter 2.

    Transmitter 0 and transmitter 2 are out of carrier-sense range; node 1
    (receiver of link 1) sits between them close enough to hear node 2,
    while receiver 3 is beyond the interference range of node 0.
    """
    return _collinear_pair("IA", link1_len_m, tx_gap_m, tx_gap_m + link2_len_m)


def near_far_pair(
    link_len_m: float = 70.0, tx_gap_m: float = 290.0
) -> LinkPairTopology:
    """Near-far pair: both receivers hear the opposite transmitter.

    The two receivers sit between the two transmitters, each closer to its
    own transmitter but still within interference range of the other one.
    """
    return _collinear_pair("NF", link_len_m, tx_gap_m, tx_gap_m - link_len_m)


def reduced_carrier_sense_radio(data_rate_mbps: float = 11, cs_threshold_dbm: float = -85.0) -> RadioConfig:
    """Radio configuration with a shorter carrier-sense range.

    Real 802.11 cards expose (and differ in) their carrier-sense/defer
    threshold; a less sensitive setting shrinks the carrier-sense range
    relative to the interference range, which is what produces the
    hidden-terminal (IA/NF) pathologies studied in Section 4.3.  Pair
    experiments that need pronounced IA starvation or partial capture use
    this radio together with tighter pair geometries.
    """
    from repro.phy.radio import rate_from_mbps

    return RadioConfig(cs_threshold_dbm=cs_threshold_dbm, data_rate=rate_from_mbps(data_rate_mbps))


def independent_pair(separation_m: float = 900.0, link_len_m: float = 40.0) -> LinkPairTopology:
    """Two links far enough apart not to interfere at all."""
    return _collinear_pair("IND", link_len_m, separation_m, separation_m + link_len_m)


def random_link_pair(
    rng: np.random.Generator,
    area_m: float = 500.0,
    min_link_m: float = 20.0,
    max_link_m: float = 90.0,
) -> LinkPairTopology:
    """A random two-link topology used to build LIR distributions (Fig. 3).

    Each link's transmitter is placed uniformly in the square and its
    receiver at a uniform distance/bearing, so the pair may fall in any of
    the CS / IA / NF / independent classes.
    """
    positions: Positions = {}
    for index, tx_node in enumerate((0, 2)):
        tx = rng.uniform(0.0, area_m, size=2)
        angle = rng.uniform(0.0, 2 * np.pi)
        length = rng.uniform(min_link_m, max_link_m)
        rx = tx + length * np.array([np.cos(angle), np.sin(angle)])
        positions[tx_node] = (float(tx[0]), float(tx[1]))
        positions[tx_node + 1] = (float(rx[0]), float(rx[1]))
    return LinkPairTopology(positions=positions, label="RANDOM")


def classify_pair(medium: WirelessMedium, link1: Link, link2: Link) -> str:
    """Classify a link pair as CS, IA, NF or IND from carrier-sense relations."""
    t1, r1 = link1
    t2, r2 = link2
    if medium.can_sense(t1, t2) or medium.can_sense(t2, t1):
        return "CS"
    r1_hears = medium.can_sense(r1, t2)
    r2_hears = medium.can_sense(r2, t1)
    if r1_hears and r2_hears:
        return "NF"
    if r1_hears or r2_hears:
        return "IA"
    return "IND"


def bounding_box(
    positions: Positions, margin_m: float = 0.0
) -> tuple[float, float, float, float]:
    """Axis-aligned bounding box of a placement, expanded by ``margin_m``.

    Returns ``(x_min, x_max, y_min, y_max)``.  Mobility models use this
    as the movement area: waypoints are drawn inside it and drifting
    nodes are clipped to it, so a trajectory can roam past the initial
    hull by at most the margin without wandering off to infinity.
    """
    if not positions:
        raise ValueError("bounding_box needs at least one position")
    xs = [x for x, _ in positions.values()]
    ys = [y for _, y in positions.values()]
    return (
        min(xs) - margin_m,
        max(xs) + margin_m,
        min(ys) - margin_m,
        max(ys) + margin_m,
    )


# --------------------------------------------------------------------------
# Multi-hop topologies
#
# Keyword defaults here (55 m chain spacing, a 200 m disk, ...) are
# library-level, for code that places nodes by hand.  ``TopologySpec``
# has its own, and the registrations in repro.sim.generators pass every
# argument, so no spec ever builds with a default from this file; the
# ValueError guards likewise protect direct callers.
# --------------------------------------------------------------------------
def chain_topology(num_nodes: int, spacing_m: float = 55.0) -> Positions:
    """A linear chain of ``num_nodes`` nodes (classic multi-hop scenario)."""
    if num_nodes < 2:
        raise ValueError("a chain needs at least two nodes")
    return {i: (i * spacing_m, 0.0) for i in range(num_nodes)}


def grid_topology(rows: int, cols: int, spacing_m: float = 60.0) -> Positions:
    """A rows-by-cols grid of nodes."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    positions: Positions = {}
    for r in range(rows):
        for c in range(cols):
            positions[r * cols + c] = (c * spacing_m, r * spacing_m)
    return positions


def ring_topology(num_nodes: int, radius_m: float = 150.0) -> Positions:
    """``num_nodes`` nodes evenly spaced on a circle of radius ``radius_m``.

    Node 0 sits at angle 0 (east) and ids increase counter-clockwise; the
    circle is centered at ``(radius_m, radius_m)`` so all coordinates stay
    non-negative.  Rings make every node exactly two-degree, which forces
    traffic around the circumference and produces chains of mutually
    interfering links with no routing shortcuts.
    """
    if num_nodes < 3:
        raise ValueError("a ring needs at least three nodes")
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    positions: Positions = {}
    for i in range(num_nodes):
        angle = 2.0 * np.pi * i / num_nodes
        positions[i] = (
            radius_m + radius_m * float(np.cos(angle)),
            radius_m + radius_m * float(np.sin(angle)),
        )
    return positions


def random_disk_topology(
    num_nodes: int,
    radius_m: float = 200.0,
    seed: int = 0,
    min_separation_m: float = 25.0,
    max_tries: int = 4000,
) -> Positions:
    """``num_nodes`` nodes placed uniformly at random inside a disk.

    Placement is rejection-sampled so no two nodes sit closer than
    ``min_separation_m`` (co-located radios produce degenerate SINR
    geometry).  The draw uses its own named RNG stream derived from
    ``seed`` (see :func:`repro.engine.rng_spawn_key`), so the layout is a
    pure function of the arguments and independent of any other stream a
    scenario consumes.
    """
    if num_nodes < 2:
        raise ValueError("a random-disk topology needs at least two nodes")
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    if min_separation_m < 0:
        raise ValueError("min_separation_m must be non-negative")
    rng = named_rng(seed, "topology.random_disk")
    positions: Positions = {}
    placed: list[tuple[float, float]] = []
    separation = min_separation_m
    tries = 0
    while len(placed) < num_nodes:
        if tries >= max_tries:
            # The disk is too crowded for the requested separation: relax
            # it geometrically rather than failing — a dense layout is a
            # legitimate (if harsh) interference scenario.
            separation *= 0.5
            tries = 0
        tries += 1
        # Uniform over the disk area: radius ~ sqrt(U), angle ~ U.
        r = radius_m * float(np.sqrt(rng.uniform()))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        x = radius_m + r * float(np.cos(theta))
        y = radius_m + r * float(np.sin(theta))
        if any((x - px) ** 2 + (y - py) ** 2 < separation**2 for px, py in placed):
            continue
        placed.append((x, y))
        tries = 0  # only consecutive rejections count towards relaxing
    for node, point in enumerate(placed):
        positions[node] = point
    return positions


def binary_tree_topology(depth: int, spacing_m: float = 60.0) -> Positions:
    """A complete binary tree of ``depth`` levels (``2**depth - 1`` nodes).

    Node ids are assigned in level order (0 is the root, node ``i`` has
    children ``2i + 1`` and ``2i + 2``), the classic sink-tree layout of
    a mesh access network: leaves generate traffic that aggregates
    towards the root gateway.  Level ``l`` sits at ``y = l * spacing_m``
    with its nodes spread evenly in x, so sibling subtrees move apart as
    the tree deepens.
    """
    if depth < 2:
        raise ValueError("a binary tree needs at least two levels")
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    positions: Positions = {}
    leaves = 2 ** (depth - 1)
    width = leaves * spacing_m
    node = 0
    for level in range(depth):
        count = 2**level
        step = width / count
        for j in range(count):
            positions[node] = ((j + 0.5) * step, level * spacing_m)
            node += 1
    return positions


def parking_lot_topology(
    num_nodes: int, spacing_m: float = 60.0, stub_m: float = 45.0
) -> Positions:
    """The classic parking-lot layout: a backbone chain plus entry stubs.

    Backbone nodes ``0 .. num_nodes-1`` form a chain along the x-axis
    (spacing ``spacing_m``); each backbone node except the last carries a
    stub node ``num_nodes + i`` hanging ``stub_m`` off the lot road.  One
    long flow down the backbone plus one-hop flows entering at every stub
    reproduces the cascading-contention workload the name comes from.
    """
    if num_nodes < 2:
        raise ValueError("a parking lot needs a backbone of at least two nodes")
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    if stub_m <= 0:
        raise ValueError("stub_m must be positive")
    positions: Positions = {
        i: (i * spacing_m, 0.0) for i in range(num_nodes)
    }
    for i in range(num_nodes - 1):
        positions[num_nodes + i] = (i * spacing_m, stub_m)
    return positions


#: Hand-placed layout mimicking the paper's 18-node testbed: three office
#: building clusters plus a parking-lot strip.  Nodes within a cluster are
#: a few tens of metres apart (strong, indoor-like links); clusters are
#: 100-250 m apart, so inter-building links are marginal or absent and
#: traffic between clusters must take multi-hop routes through the
#: parking-lot relays.
_TESTBED_CLUSTERS: dict[str, tuple[tuple[float, float], list[tuple[float, float]]]] = {
    "building_a": ((60.0, 60.0), [(-25.0, -20.0), (5.0, -30.0), (-30.0, 15.0), (20.0, 10.0), (0.0, 35.0), (30.0, -5.0)]),
    "building_b": ((330.0, 80.0), [(-30.0, -15.0), (0.0, -30.0), (25.0, 5.0), (-15.0, 25.0), (35.0, 30.0), (5.0, 45.0)]),
    "building_c": ((210.0, 300.0), [(-25.0, -10.0), (10.0, -25.0), (25.0, 15.0), (-10.0, 25.0)]),
    "parking_lot": ((175.0, 150.0), [(-40.0, -30.0), (40.0, 25.0)]),
}

_TESTBED_BASE_POSITIONS: Positions = {}
_node_counter = 0
for _cluster, (_center, _offsets) in _TESTBED_CLUSTERS.items():
    for _dx, _dy in _offsets:
        _TESTBED_BASE_POSITIONS[_node_counter] = (_center[0] + _dx, _center[1] + _dy)
        _node_counter += 1
del _cluster, _center, _offsets, _dx, _dy, _node_counter


def testbed_positions(seed: int = 0, jitter_m: float = 6.0) -> Positions:
    """The 18-node synthetic testbed layout with a small seeded jitter."""
    rng = np.random.default_rng(seed)
    positions: Positions = {}
    for node, (x, y) in _TESTBED_BASE_POSITIONS.items():
        dx, dy = rng.uniform(-jitter_m, jitter_m, size=2)
        positions[node] = (x + dx, y + dy)
    return positions
