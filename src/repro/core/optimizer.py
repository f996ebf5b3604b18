"""Utility-maximising rate optimization over the feasibility region
(Section 6.1 of the paper).

The problem solved is::

    maximize   sum_s U(y_s)
    subject to R y <= sum_k alpha_k c[k]      (per link)
               sum_k alpha_k = 1, alpha >= 0, y >= 0

where ``R`` is the binary routing matrix (links x flows), the ``c[k]``
are the extreme points of the feasibility region and ``U`` is an
alpha-fair utility.  One solver runs every program over the region:
the concave case (alpha > 0), the throughput-maximising linear program
(alpha = 0, H = 0), the max-min limit and the region's scaling factor
(:meth:`FeasibilityRegion.max_scaling`), the last two with one flow
routed along the load vector ``R 1`` or the query direction.  Each is
a small program solved in plain numpy by a primal-dual interior-point
Newton iteration (Boyd & Vandenberghe, *Convex Optimization*, Section
11.7; Wright, *Primal-Dual Interior-Point Methods*, 1997, ch. 10, for
H = 0; the centering of Mehrotra's 1992 predictor).  From a strictly
interior start, each step solves the linearized KKT system
``[[H + D_x, A^T, e], [A, -D_s, 0], [e^T, 0, 0]]``, ``A = [R, -C^T]``,
once for the affine-scaling and the centering direction, aims every
slack x multiplier product at (predicted / current gap)^3 of their
mean, and moves all variables by one step length: at most 0.999 of the
way to the boundary, halved until the KKT residual norm falls.  It ends
when gap + |dual residual| |x|, a bound on the distance to the optimum,
is within 1e-10 of ``sum_s y_s U'(y_s)``; anything else comes back as
``success=False`` with the residuals in the message.  A step allocates
next to nothing: the iterate and its trial are two buffers that swap
roles, the step's arrays are written in place, and each BLAS reduction
reads an operand of the layout a fresh array would have, so its
summation order, and every bit of the iterate, is the one the
allocating form of the same operations gives.  Rates are
normalised internally so the solver sees well-conditioned numbers
whether capacities are in b/s or Mb/s.  The solver carries only the
extreme points no other point dominates: under free disposal the
dominated ones (every primary point, for one) cannot change the
optimum, and their weights come back as exact zeros.

Tie rule: where the alpha = 0 optimum is a face, the iteration returns
its central path's limit, which spreads tied rate across the face (flows
on one route get equal rates), not a vertex as a simplex solver does;
max-min puts every flow at t*.  The objective is certified to 1e-10, the
position on a face to about 1e-8 relative only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extreme_points import FeasibilityRegion, non_dominated_rows
from repro.core.utility import AlphaFairUtility
from repro.net.routing import RoutingMatrix


#: The interior-point iteration of :func:`_interior_point`.
_MAX_NEWTON_STEPS = 500
_BOUNDARY_FRACTION = 0.999
_MIN_STEP = 1e-10
_OBJECTIVE_TOLERANCE = 1e-10
_FEASIBILITY_TOLERANCE = 1e-9


def solve_rate_program(
    points: np.ndarray, routing: np.ndarray, fairness: float, floor: float = 0.0
) -> tuple[np.ndarray, np.ndarray, bool, str]:
    """The module's program with ``C = points`` (K x L, largest entry 1),
    ``R = routing`` (L x S) and ``y >= floor``: ``(y, alpha, converged,
    message)``.  Fairness 0 is the LP, bounded at 0, not at the floor (1 b/s
    on a weak link costs more than the tolerance); its presolve drops links
    no point serves with their flows, which carry nothing, and solves the
    flows on one route as one, split evenly as the central path splits them."""
    if fairness > 0:
        return _interior_point(points, routing, fairness, floor)
    rates = np.zeros(routing.shape[1])
    served = points.max(axis=0) > 0
    open_flows = ~routing[~served].any(axis=0)
    if not open_flows.any():
        return rates, np.eye(len(points))[0], True, "every flow crosses a link no point serves"
    routes, group, count = np.unique(
        routing[served][:, open_flows], axis=1, return_inverse=True, return_counts=True
    )
    total, alpha, converged, message = _interior_point(points[:, served], routes, 0.0, 0.0)
    rates[open_flows] = (total / count)[group.reshape(-1)]
    return rates, alpha, converged, message


class _Point:
    """One iterate ``z`` of :func:`_interior_point` and what a step derives
    from it: U's gradient, the KKT residual and ``z - lower`` (the
    complementarity pairs' first sides, then their second), with the
    views a step reads.  Two of them swap roles, iterate and trial, so no
    step allocates them again."""

    __slots__ = (
        *("z", "flows", "head", "tail", "grad"),
        *("res", "pairs", "flow_res", "positive", "first", "second"),
    )

    def __init__(self, z: np.ndarray, num_flows: int, m: int) -> None:
        self.z, self.res, self.positive = z, np.empty(m + 1), np.empty(2 * m + 1)
        self.flows, self.head, self.tail = z[:num_flows], z[: m + 1], z[m + 1 :]
        self.pairs, self.flow_res = self.res[:m], self.res[:num_flows]
        self.first, self.second = self.positive[:m], self.positive[m + 1 :]


def _interior_point(
    points: np.ndarray, routing: np.ndarray, fairness: float, floor: float
) -> tuple[np.ndarray, np.ndarray, bool, str]:
    """The iteration itself, on the program as given."""
    num_links, num_flows = routing.shape
    capacity_rows = np.concatenate([routing, -points.T], axis=1)
    n = capacity_rows.shape[1]
    m = n + num_links
    # Equilibrated units: a link row in units of its capacity under
    # uniform alpha, a flow in units of half its tightest per-link
    # share of that budget, so y = 1, alpha = 1 / K is interior.
    x = np.ones(n)
    x[num_flows:] /= n - num_flows
    budget = x[num_flows:] @ points
    share = budget / np.maximum(np.add.reduce(routing, axis=1), 1.0)
    tightest = np.minimum.reduce(np.where(routing.T > 0, share, np.inf), axis=1)
    rate_unit = np.maximum(2 * floor, 0.5 * tightest)
    rows = capacity_rows / np.where(budget > 0.0, budget, 1.0)[:, None]
    rows[:, :num_flows] *= rate_unit
    weight = rate_unit ** (1.0 - fairness)  # U'(y) = weight y^-alpha in those units
    neg_weight = -(weight / np.maximum.reduce(weight))
    # z = [x = (y, alpha), link prices, nu | bound multipliers, link
    # slacks]: (z - lower)[i] and z[m + 1 + i] are the two sides of
    # complementarity pair i, and nu (entry m) is free.
    lower = np.zeros(2 * m + 1)
    lower[:num_flows], lower[m] = floor / rate_unit, -np.inf
    slack = np.maximum(-(rows @ x), floor)
    z = np.concatenate([x, 1.0 / slack, [0.0], 1.0 / (x - lower[:n]), slack])
    # The Newton matrix, constant but for its diagonal.  Eliminating the
    # link rows squares its conditioning: two tied points then stall it.
    sign = np.ones(m)
    sign[n:] = -1.0
    constant = np.zeros((m + 1, m + 1))
    constant[:n, n:m], constant[n:m, :n] = rows.T, rows
    constant[num_flows:n, m] = constant[m, num_flows:n] = 1.0
    kkt = constant.copy()
    diagonal = kkt.reshape(-1)[:: m + 2][:m]
    flow_diagonal = diagonal[:num_flows]
    # What the residual subtracts from constant @ z: [sign * slacks, 1].
    shift = np.ones(m + 1)
    signed_tail = shift[:m]

    def evaluate(point: _Point) -> float:
        """Fill ``point`` in from its ``z``; the residual's squared norm."""
        point.grad = neg_weight * point.flows ** -fairness
        np.matmul(constant, point.head, out=point.res)  # [dual (n), link rows (L), simplex]
        np.multiply(sign, point.tail, out=signed_tail)
        np.subtract(point.res, shift, out=point.res)
        np.add(point.flow_res, point.grad, out=point.flow_res)
        np.subtract(point.z, lower, out=point.positive)
        return float(point.res.dot(point.res))

    current, trial = _Point(z, num_flows, m), _Point(np.empty_like(z), num_flows, m)
    res_norm2 = evaluate(current)
    # The step's work arrays, written in place.  Every reduction (a dot,
    # the KKT product, a 2-row combination) reads operands of the shape
    # and strides a fresh array would have: BLAS sums in an order fixed by
    # that layout, so every iterate keeps its bits.
    ratio, centrality = np.empty(m), np.empty(m)
    rhs, sides = np.zeros((2, m + 1)), np.empty((2, m))
    neg_second, inv_first = sides
    rhs_pairs, rhs_affine = rhs[:, :m], rhs[0, :m]
    dz, reach = np.empty((2, 2 * m + 1)), np.empty((2, 2 * m + 1))
    solved, head, tail = dz[:, : m + 1], dz[:, :m], dz[:, m + 1 :]
    affine_head, affine_tail, affine_reach = dz[0, :m], dz[0, m + 1 :], reach[0]
    weights, converged = np.ones(2), False
    # inf / nan (the floor does not fit) end the loop as a failure.
    with np.errstate(all="ignore"):
        for iteration in range(_MAX_NEWTON_STEPS):
            z, grad, res = current.z, current.grad, current.res
            # Keep the largest marginal utility near 1 as the rates move.
            if not 0.5 < (rescale := -1.0 / np.minimum.reduce(grad)) < 2.0:
                neg_weight *= rescale
                z[n : m + 1 + n] *= rescale
                grad *= rescale
                res[:n] *= rescale
                np.subtract(z, lower, out=current.positive)
                res_norm2 = float(res.dot(res))
            first, second = current.first, current.second
            gap = float(first.dot(second))
            # gap + |dual residual| |x| bounds the distance to the optimum
            # (the gap alone says no until the last steps).
            tolerance = _OBJECTIVE_TOLERANCE * -float(grad.dot(current.flows))
            if gap <= tolerance:
                error = np.abs(res)
                if converged := bool(
                    gap + float(np.maximum.reduce(error[:n])) * float(z[:n].sum()) <= tolerance
                    and np.maximum.reduce(error[n:]) <= _FEASIBILITY_TOLERANCE
                ):
                    break
            np.divide(second, first, out=ratio)
            np.multiply(sign, ratio, out=diagonal)
            flow_diagonal -= fairness * grad / current.flows
            # Two right-hand sides: the affine-scaling step, and the
            # change per unit of centering target.  sign = +-1 makes each
            # product with it an exact negation or copy.
            np.negative(second, out=neg_second)
            np.divide(1.0, first, out=inv_first)
            np.multiply(sign, sides, out=rhs_pairs)
            np.subtract(rhs_affine, current.pairs, out=rhs_affine)
            rhs[0, m] = -res[m]
            try:
                solved[...] = np.linalg.solve(kkt, rhs.T).T
            except np.linalg.LinAlgError:
                break
            np.multiply(ratio, head, out=tail)
            np.subtract(sides, tail, out=tail)
            # -1 / min(reach) is the step at which a pair's side hits zero
            # (the entry argmin finds: the minimum, or the first NaN).
            np.divide(dz, current.positive, out=reach)
            a = -1.0 / min(float(affine_reach[affine_reach.argmin()]), -1.0)
            # The affine step takes a off every product, to first order.
            affine_gap = (1.0 - a) * gap + a * a * float(affine_head.dot(affine_tail))
            shrink = np.float64(affine_gap) / gap  # numpy's: inf, not an exception, at 0
            weights[1] = target = float(max(shrink**3 * gap, 0.1 * tolerance) / m)
            step, step_reach = weights @ dz, weights @ reach
            a = -_BOUNDARY_FRACTION / min(
                float(step_reach[step_reach.argmin()]), -_BOUNDARY_FRACTION
            )
            # Backtrack on the perturbed KKT residual's norm.
            np.multiply(first, second, out=centrality)
            centrality -= target
            norm2 = res_norm2 + float(centrality.dot(centrality))
            while a > _MIN_STEP:
                np.multiply(step, a, out=trial.z)
                trial.z += z
                trial_norm2 = evaluate(trial)
                np.multiply(trial.first, trial.second, out=centrality)
                centrality -= target
                if trial_norm2 + float(centrality.dot(centrality)) <= (1.0 - 0.01 * a) ** 2 * norm2:
                    break
                a *= 0.5
            else:  # nothing lowers it: the floor does not fit, or precision ran out
                break
            current, trial, res_norm2 = trial, current, trial_norm2
    error = np.abs(res)  # at the start of the last step, as the gap
    found = "optimum" if converged else "no optimum"
    message = f"interior point: {found} after {iteration} Newton steps (gap {gap:.3g}, dual "
    message += f"residual {error[:n].max():.3g}, primal residual {error[n:].max():.3g})"
    return current.z[:num_flows] * rate_unit, current.z[num_flows:n], converged, message


class SolverError(RuntimeError):
    """The solver did not reach an optimum; the message is the solver's own."""


@dataclass
class OptimizationResult:
    """Solution of the rate-optimization problem."""

    flow_rates: np.ndarray
    alpha: np.ndarray
    link_rates: np.ndarray
    objective: float
    success: bool
    message: str = ""


class RateOptimizer:
    """Solves the convex optimization of Section 6.1.

    Args:
        region: feasibility region (its link order defines the rows of
            the routing matrix that will be accepted).
        routing: routing matrix; its link list must match the region's.
        utility: objective from the alpha-fair family.
        rate_floor: minimum per-flow rate enforced to keep logarithmic
            utilities finite (in the same unit as the capacities).
    """

    def __init__(
        self,
        region: FeasibilityRegion,
        routing: RoutingMatrix,
        utility: AlphaFairUtility,
        rate_floor: float = 1.0,
    ) -> None:
        if list(routing.links) != list(region.links):
            raise ValueError("routing matrix and feasibility region must use the same link order")
        if routing.matrix.shape[0] != len(region.links):
            raise ValueError("routing matrix row count must equal the number of links")
        self.region = region
        self.routing = routing
        self.utility = utility
        self.rate_floor = rate_floor
        # One layout, so no caller's order changes a BLAS sum's last bits.
        self._r = np.ascontiguousarray(routing.matrix)
        self._scale = float(region.extreme_points.max())
        if self._scale <= 0:
            raise ValueError("the feasibility region has zero capacity everywhere")
        # Presolve: the solver sees the non-dominated points only.
        self._kept = non_dominated_rows(region.extreme_points)
        self._c = region.extreme_points[self._kept] / self._scale

    # --------------------------------------------------------------- solving
    def solve(self) -> OptimizationResult:
        """Solve for the optimal flow output rates."""
        floor = self.rate_floor / self._scale
        return self._package(*solve_rate_program(self._c, self._r, self.utility.alpha, floor))

    def solve_max_min(self) -> OptimizationResult:
        """Max-min fair rates (the alpha -> infinity limit): every flow at
        the largest t with t R 1 feasible.  A feasible y >= t 1 makes t 1
        feasible, the region being downward closed."""
        load = self._r.sum(axis=1, keepdims=True)
        t, alpha, converged, message = solve_rate_program(self._c, load, 0.0)
        return self._package(np.full(self._r.shape[1], t[0]), alpha, converged, message)

    def _package(
        self, rates: np.ndarray, alpha: np.ndarray, success: bool, message: str
    ) -> OptimizationResult:
        y = rates * self._scale
        weights = np.zeros(len(self.region.extreme_points))
        weights[self._kept] = alpha
        objective = self.utility.value(np.maximum(y, self.rate_floor))
        return OptimizationResult(y, weights, self._r @ y, objective, success, message)
