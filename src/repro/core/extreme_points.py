"""Extreme points and the convex feasibility region (Sections 3.1–3.2).

The feasible rate region of the mesh is modeled as the set of link output
rate vectors dominated by a convex combination of *extreme points*:

* each **primary** extreme point puts one link at its capacity (its max
  UDP throughput when transmitting alone, backlogged — Section 3.1) and
  every other link at zero;
* each **secondary** extreme point corresponds to a maximal independent
  set of the conflict graph (enumerated by :mod:`repro.core.cliques`),
  with every member link at its capacity (Eq. 4: ``c2[m] = C1 * v[m]``).

A rate vector ``y`` is estimated feasible when there exist convex
weights ``alpha`` with ``sum_k alpha_k * c[k] >= y`` componentwise (the
polytope plus free disposal).  The boundary along a direction is the
max-throughput program of :mod:`repro.core.optimizer` with one flow
routed along it, and membership is a scaling factor of at least 1; both
are numbers, so the optimizer's tie rule never reaches them.  The region
keeps every point of the paper's model; :func:`non_dominated_rows` names
the subset that free disposal leaves able to matter, which is all the
solver carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.cliques import independent_set_rows
from repro.core.conflict_graph import ConflictGraph
from repro.core.interference import Link


def primary_extreme_points(
    capacities: Mapping[Link, float], links: Sequence[Link]
) -> np.ndarray:
    """One extreme point per link: that link at capacity, others at zero."""
    return np.diag(_capacity_vector(capacities, links))


def secondary_extreme_points(
    capacities: Mapping[Link, float],
    conflict_graph: ConflictGraph,
    links: Sequence[Link] | None = None,
) -> np.ndarray:
    """Eq. (4): one extreme point per maximal independent set, in
    ``conflict_graph.independent_sets()`` order."""
    links = list(links) if links is not None else list(conflict_graph.links)
    capacity = _capacity_vector(capacities, links)
    vertices, rows = independent_set_rows(conflict_graph.adjacency)
    column = {link: i for i, link in enumerate(vertices)}
    return np.where(rows[:, [column[link] for link in links]], capacity, 0.0)


def non_dominated_rows(points: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``points`` that no other row dominates
    componentwise; of exact duplicates the first occurrence stays.

    Under free disposal a dominated extreme point adds nothing to the
    region: any weight on it can move to its dominator and every link
    budget only grows.
    """
    # A link of an Eq. (4) point is at 0 or at its capacity.  Where every
    # link takes at most two values, row i >= row j unless j is at a top
    # that i is not: a count of such links is a 0/1 product, exact in
    # floats.  Other points (NaN fails the test) compare link by link.
    top = np.maximum.reduce(points, axis=0, initial=-np.inf)
    at_top = points == top
    if (at_top | (points == np.minimum.reduce(points, axis=0, initial=np.inf))).all():
        geq = (~at_top).astype(float) @ at_top.T.astype(float) == 0.0  # [i, j]: row i >= row j
    else:
        geq = (points[:, None, :] >= points[None, :, :]).all(axis=2)
    order = np.arange(len(points))
    # j falls to an i >= j that j does not match, or to an equal i < j.
    beaten = geq & (~geq.T | (order[:, None] < order))
    return np.flatnonzero(~np.logical_or.reduce(beaten, axis=0))


def _capacity_vector(capacities: Mapping[Link, float], links: Sequence[Link]) -> np.ndarray:
    for link in links:
        if link not in capacities:
            raise KeyError(f"missing capacity for link {link}")
        if capacities[link] < 0:
            raise ValueError(f"capacity of link {link} must be non-negative")
    return np.array([capacities[link] for link in links], dtype=float)


@dataclass
class FeasibilityRegion:
    """The convex feasibility region spanned by a set of extreme points.

    Attributes:
        links: ordered directed links (columns of ``extreme_points``).
        extreme_points: ``K x L`` array, one extreme point per row.
    """

    links: list[Link]
    extreme_points: np.ndarray

    def __post_init__(self) -> None:
        self.extreme_points = np.asarray(self.extreme_points, dtype=float)
        if self.extreme_points.ndim != 2:
            raise ValueError("extreme_points must be a 2-D array")
        if self.extreme_points.shape[1] != len(self.links):
            raise ValueError("extreme point dimension must match the number of links")
        if self.extreme_points.shape[0] == 0:
            raise ValueError("at least one extreme point is required")
        if np.any(self.extreme_points < 0):
            raise ValueError("extreme points must be non-negative")

    # ------------------------------------------------------------- properties
    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_extreme_points(self) -> int:
        return int(self.extreme_points.shape[0])

    def link_index(self, link: Link) -> int:
        return self.links.index(link)

    def max_single_link_rate(self, link: Link) -> float:
        """The largest rate the region allows on one link alone."""
        return float(self.extreme_points[:, self.link_index(link)].max())

    # -------------------------------------------------------------- membership
    def contains(self, rates: Sequence[float] | np.ndarray, tolerance: float = 1e-9) -> bool:
        """Whether the link-rate vector ``rates`` is estimated feasible:
        some convex weights ``alpha`` have ``C^T alpha >= rates - tolerance``.
        ``C^T alpha >= 0`` always, so that is ``max(rates - tolerance, 0)``
        scaling to at least itself."""
        y = self._link_vector(rates, "rates")
        if np.any(y < -tolerance):
            return False
        target = np.maximum(y - tolerance, 0.0)
        return not target.any() or self.max_scaling(target) >= 1.0

    def max_scaling(self, direction: Sequence[float] | np.ndarray) -> float:
        """Largest ``theta`` such that ``theta * direction`` is feasible.

        This is how the validation experiments search for the boundary of
        the region along a given rate vector (scaling factors of Section
        4.5).  Returns 0 for the zero direction, and for one that crosses
        a link no extreme point serves.
        """
        # Imported here: the optimizer module imports this one.
        from repro.core.optimizer import solve_rate_program

        d = self._link_vector(direction, "direction")
        if np.any(d < 0):
            raise ValueError("direction must be non-negative")
        scale, top = self.extreme_points.max(), d.max()
        if top == 0 or scale == 0:
            return 0.0
        # The alpha = 0 program with one flow whose routing column is d.
        points = self.extreme_points[non_dominated_rows(self.extreme_points)] / scale
        theta, _, converged, message = solve_rate_program(points, d[:, None] / top, 0.0)
        if not converged:  # pragma: no cover - the program is always feasible
            raise RuntimeError(f"max_scaling did not converge: {message}")
        return float(theta[0] * scale / top)

    def _link_vector(self, values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
        vector = np.asarray(values, dtype=float)
        if vector.shape != (self.num_links,):
            raise ValueError(f"expected a vector of {self.num_links} link rates")
        if not np.isfinite(vector).all():
            raise ValueError(f"{name} must be finite")
        return vector

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_capacities_and_conflicts(
        cls,
        capacities: Mapping[Link, float],
        conflict_graph: ConflictGraph,
    ) -> "FeasibilityRegion":
        """Build the model of Section 3.2 (primary, then secondary
        extreme points) from capacities and conflicts."""
        links = list(conflict_graph.links)
        primary = primary_extreme_points(capacities, links)
        secondary = secondary_extreme_points(capacities, conflict_graph, links)
        return cls(links=links, extreme_points=np.vstack([primary, secondary]))
