"""Small rate programs: regions built from conflict pairs, routing given
outright, and the degenerate shapes that break a careless Newton
iteration.  Shared by ``test_optimizer.py`` and the parent-bit probe."""

from __future__ import annotations

import numpy as np

from repro.core.conflict_graph import ConflictGraph
from repro.core.extreme_points import FeasibilityRegion
from repro.core.interference import PairwiseInterferenceMap
from repro.net.routing import FlowRoute, RoutingMatrix


def make_region(links, capacities, conflicts):
    imap = PairwiseInterferenceMap(links)
    for a, b in conflicts:
        imap.add_conflict(a, b)
    graph = ConflictGraph.from_interference_map(imap)
    return FeasibilityRegion.from_capacities_and_conflicts(capacities, graph)


def link_list(count):
    return [(2 * i, 2 * i + 1) for i in range(count)]


def routing_of(region, matrix):
    """A routing matrix given outright (links x flows): the optimizer
    reads the matrix alone, the routes are labels."""
    matrix = np.asarray(matrix, dtype=float)
    flows = [FlowRoute(f, 0, 1, [0, 1]) for f in range(matrix.shape[1])]
    return RoutingMatrix(links=list(region.links), flows=flows, matrix=matrix)


def program(capacities, conflicts, matrix):
    """``(region, routing)`` on ``link_list(len(capacities))``, conflicts
    and routing rows by link index."""
    links = link_list(len(capacities))
    pairs = [(links[a], links[b]) for a, b in conflicts]
    region = make_region(links, dict(zip(links, capacities)), pairs)
    return region, routing_of(region, matrix)


def two_single_hop_flows(c1=1e6, c2=1e6, interfering=True):
    return program([c1, c2], [(0, 1)] if interfering else [], np.eye(2))


#: The shapes that break a careless Newton iteration, by name: each builds
#: ``(region, routing)``.
DEGENERATE_SHAPES = {
    "two kept points tied on every loaded link": lambda: program(
        [3e6, 2e6, 1e6], [(1, 2)], [[1, 1], [0, 0], [0, 0]]
    ),
    "a single kept point": lambda: two_single_hop_flows(c1=3e6, c2=1e6, interfering=False),
    "a link no flow crosses": lambda: program(
        [3e6, 2e6, 1e6], [(0, 1), (1, 2)], [[1, 0], [0, 1], [0, 0]]
    ),
    "a capacity a millionth of the largest": lambda: two_single_hop_flows(c1=5e6, c2=5.0),
    "a rate floor that does not fit": lambda: program([2.0, 4e6], [(0, 1)], [[1, 1, 1], [0, 0, 1]]),
    "starved flows": lambda: program(
        [3480546.0, 4391383.0, 4188278.0, 241688.0],
        [(0, 2), (1, 2), (1, 3), (2, 3)],
        # One row per flow, transposed: a Fortran-ordered routing matrix.
        np.array([[0, 1, 1, 1], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1]]).T,
    ),
}
