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
polytope plus free disposal).  Membership and boundary queries reduce
to small linear programs solved with scipy.  The region keeps every
point of the paper's model; :func:`non_dominated_rows` names the subset
that free disposal leaves able to matter, which is all the optimizer
carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.conflict_graph import ConflictGraph
from repro.core.interference import Link


def primary_extreme_points(
    capacities: Mapping[Link, float], links: Sequence[Link]
) -> np.ndarray:
    """One extreme point per link: that link at capacity, others at zero."""
    _validate_capacities(capacities, links)
    matrix = np.zeros((len(links), len(links)), dtype=float)
    for index, link in enumerate(links):
        matrix[index, index] = capacities[link]
    return matrix


def secondary_extreme_points(
    capacities: Mapping[Link, float],
    conflict_graph: ConflictGraph,
    links: Sequence[Link] | None = None,
) -> np.ndarray:
    """Eq. (4): one extreme point per maximal independent set."""
    links = list(links) if links is not None else list(conflict_graph.links)
    _validate_capacities(capacities, links)
    independent_sets = conflict_graph.independent_sets()
    matrix = np.zeros((len(independent_sets), len(links)), dtype=float)
    for row, members in enumerate(independent_sets):
        for col, link in enumerate(links):
            if link in members:
                matrix[row, col] = capacities[link]
    return matrix


def non_dominated_rows(points: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``points`` that no other row dominates
    componentwise; of exact duplicates the first occurrence stays.

    Under free disposal a dominated extreme point adds nothing to the
    region: any weight on it can move to its dominator and every link
    budget only grows.
    """
    geq = (points[:, None, :] >= points[None, :, :]).all(axis=2)  # [i, j]: row i >= row j
    dominated = (geq & ~geq.T).any(axis=0) | np.triu(geq & geq.T, k=1).any(axis=0)
    return np.flatnonzero(~dominated)


def _validate_capacities(capacities: Mapping[Link, float], links: Sequence[Link]) -> None:
    for link in links:
        if link not in capacities:
            raise KeyError(f"missing capacity for link {link}")
        if capacities[link] < 0:
            raise ValueError(f"capacity of link {link} must be non-negative")


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
        """Whether the link-rate vector ``rates`` is estimated feasible."""
        from scipy.optimize import linprog

        y = np.asarray(rates, dtype=float)
        if y.shape != (self.num_links,):
            raise ValueError(f"expected a vector of {self.num_links} link rates")
        if np.any(y < -tolerance):
            return False
        c = self.extreme_points  # (K, L)
        k = self.num_extreme_points
        # Feasibility LP over alpha: C^T alpha >= y, sum alpha = 1, alpha >= 0.
        result = linprog(
            c=np.zeros(k),
            A_ub=-c.T,
            b_ub=-(y - tolerance),
            A_eq=np.ones((1, k)),
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * k,
            method="highs",
        )
        return bool(result.success)

    def max_scaling(self, direction: Sequence[float] | np.ndarray) -> float:
        """Largest ``theta`` such that ``theta * direction`` is feasible.

        This is how the validation experiments search for the boundary of
        the region along a given rate vector (scaling factors of Section
        4.5).  Returns 0 for the zero direction.
        """
        from scipy.optimize import linprog

        d = np.asarray(direction, dtype=float)
        if d.shape != (self.num_links,):
            raise ValueError(f"expected a vector of {self.num_links} link rates")
        if np.any(d < 0):
            raise ValueError("direction must be non-negative")
        if np.allclose(d, 0.0):
            return 0.0
        k = self.num_extreme_points
        # Variables: [theta, alpha_1..alpha_K]; maximize theta.
        objective = np.zeros(k + 1)
        objective[0] = -1.0
        a_ub = np.hstack([d.reshape(-1, 1), -self.extreme_points.T])
        b_ub = np.zeros(self.num_links)
        a_eq = np.zeros((1, k + 1))
        a_eq[0, 1:] = 1.0
        result = linprog(
            c=objective,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * (k + 1),
            method="highs",
        )
        if not result.success:  # pragma: no cover - the LP is always feasible
            raise RuntimeError(f"max_scaling LP failed: {result.message}")
        return float(result.x[0])

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
