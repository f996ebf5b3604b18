"""Utility-maximising rate optimization over the feasibility region
(Section 6.1 of the paper).

The problem solved is::

    maximize   sum_s U(y_s)
    subject to R y <= sum_k alpha_k c[k]      (per link)
               sum_k alpha_k = 1, alpha >= 0, y >= 0

where ``R`` is the binary routing matrix (links x flows), the ``c[k]``
are the extreme points of the feasibility region and ``U`` is an
alpha-fair utility.  The throughput-maximising case (alpha = 0) and the
max-min-fair case are linear programs; the general case is a small,
smooth concave program solved with SLSQP.  Rates are normalised
internally so the solver sees well-conditioned numbers regardless of
whether capacities are expressed in b/s or Mb/s.  The solver carries
only the extreme points no other point dominates: under free disposal
the dominated ones (every primary point, for one) cannot change the
optimum, and their weights come back as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extreme_points import FeasibilityRegion, non_dominated_rows
from repro.core.utility import AlphaFairUtility
from repro.net.routing import RoutingMatrix


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

    @property
    def aggregate_rate(self) -> float:
        return float(self.flow_rates.sum())


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
        if routing.matrix.shape[0] != region.num_links:
            raise ValueError("routing matrix row count must equal the number of links")
        self.region = region
        self.routing = routing
        self.utility = utility
        self.rate_floor = rate_floor
        self._scale = float(region.extreme_points.max())
        if self._scale <= 0:
            raise ValueError("the feasibility region has zero capacity everywhere")
        # Presolve: the solvers see the non-dominated points only, and
        # the constraints are linear, so their Jacobians are constants.
        self._kept = non_dominated_rows(region.extreme_points)
        self._c = region.extreme_points[self._kept] / self._scale
        num_flows = routing.matrix.shape[1]
        self._slack_jac = np.hstack([-routing.matrix, self._c.T])
        self._simplex_jac = np.concatenate([np.zeros(num_flows), np.ones(self._kept.size)])

    # --------------------------------------------------------------- solving
    def solve(self) -> OptimizationResult:
        """Solve for the optimal flow output rates."""
        if self.utility.is_throughput_maximising:
            return self._solve_linear(max_min=False)
        return self._solve_concave()

    def solve_max_min(self) -> OptimizationResult:
        """Max-min fair rates (the alpha -> infinity limit), via an LP."""
        return self._solve_linear(max_min=True)

    # ---------------------------------------------------------------- internals
    @property
    def _r(self) -> np.ndarray:
        return self.routing.matrix

    def _solve_linear(self, max_min: bool) -> OptimizationResult:
        # Loaded at the first solve: a process that never solves (drainer,
        # broker, controller-off cell) does not pay for scipy.optimize.
        from scipy.optimize import linprog

        num_flows = self._r.shape[1]
        num_points = self._kept.size
        num_links = self.region.num_links
        # Variables: [y (S), alpha (K)] plus a trailing t for max-min.
        extra = 1 if max_min else 0
        num_vars = num_flows + num_points + extra
        objective = np.zeros(num_vars)
        if max_min:
            objective[-1] = -1.0
        else:
            objective[:num_flows] = -1.0
        # R y - C^T alpha <= 0
        a_ub = np.zeros((num_links, num_vars))
        a_ub[:, : num_flows + num_points] = -self._slack_jac
        b_ub = np.zeros(num_links)
        if max_min:
            # t - y_s <= 0 for every flow.
            extra_rows = np.zeros((num_flows, num_vars))
            extra_rows[:, :num_flows] = -np.eye(num_flows)
            extra_rows[:, -1] = 1.0
            a_ub = np.vstack([a_ub, extra_rows])
            b_ub = np.concatenate([b_ub, np.zeros(num_flows)])
        a_eq = np.zeros((1, num_vars))
        a_eq[0, num_flows : num_flows + num_points] = 1.0
        result = linprog(
            c=objective,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * num_vars,
            method="highs",
        )
        if not result.success:
            return OptimizationResult(
                flow_rates=np.zeros(num_flows),
                alpha=np.zeros(self.region.num_extreme_points),
                link_rates=np.zeros(num_links),
                objective=float("nan"),
                success=False,
                message=result.message,
            )
        y = result.x[:num_flows] * self._scale
        alpha = result.x[num_flows : num_flows + num_points]
        return self._package(y, alpha, success=True, message="linprog")

    def _solve_concave(self) -> OptimizationResult:
        from scipy.optimize import minimize

        num_flows = self._r.shape[1]
        num_points = self._kept.size
        floor = self.rate_floor / self._scale
        utility = AlphaFairUtility(alpha=self.utility.alpha, rate_floor=floor)
        slack_jac, simplex_jac = self._slack_jac, self._simplex_jac

        # Feasible starting point: uniform alpha, then shrink a uniform
        # flow vector until it fits inside the per-link budgets.
        alpha0 = np.full(num_points, 1.0 / num_points)
        budget = self._c.T @ alpha0
        flows_per_link = np.maximum(self._r.sum(axis=1), 1.0)
        per_link_share = budget / flows_per_link
        y0 = np.full(num_flows, max(floor, 1e-6))
        for flow_index in range(num_flows):
            links_of_flow = self._r[:, flow_index] > 0
            if np.any(links_of_flow):
                y0[flow_index] = max(floor, 0.5 * per_link_share[links_of_flow].min())
        x0 = np.concatenate([y0, alpha0])
        # SLSQP's first step is the raw gradient (its Hessian model starts
        # at I): unscaled, alpha >= 2 on a starved flow overshoots so far
        # that the line search gives up at x0 and reports success.  In
        # units of the starting objective the step is O(1), and ftol is
        # a relative tolerance.
        unit = 1.0 / max(1.0, abs(utility.value(y0)))

        def negative_utility(x: np.ndarray) -> float:
            return -unit * utility.value(x[:num_flows])

        def negative_utility_grad(x: np.ndarray) -> np.ndarray:
            grad = np.zeros_like(x)
            grad[:num_flows] = -unit * utility.gradient(x[:num_flows])
            return grad

        # C^T alpha - R y >= 0 per link, and sum(alpha) = 1.
        constraints = [
            {"type": "ineq", "fun": lambda x: slack_jac @ x, "jac": lambda x: slack_jac},
            {"type": "eq", "fun": lambda x: simplex_jac @ x - 1.0, "jac": lambda x: simplex_jac},
        ]
        bounds = [(floor, None)] * num_flows + [(0.0, 1.0)] * num_points
        result = minimize(
            negative_utility,
            x0,
            jac=negative_utility_grad,
            bounds=bounds,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-10},
        )
        return self._package(
            np.maximum(result.x[:num_flows], 0.0) * self._scale,
            np.maximum(result.x[num_flows:], 0.0),
            success=bool(result.success),
            message=str(result.message),
        )

    def _package(
        self, y: np.ndarray, alpha: np.ndarray, success: bool, message: str
    ) -> OptimizationResult:
        link_rates = self._r @ y
        weights = np.zeros(self.region.num_extreme_points)
        weights[self._kept] = alpha
        return OptimizationResult(
            flow_rates=np.asarray(y, dtype=float),
            alpha=weights,
            link_rates=np.asarray(link_rates, dtype=float),
            objective=self.utility.value(np.maximum(y, self.rate_floor)),
            success=success,
            message=message,
        )
