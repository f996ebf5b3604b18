"""Utility-maximising rate optimization over the feasibility region
(Section 6.1 of the paper).

The problem solved is::

    maximize   sum_s U(y_s)
    subject to R y <= sum_k alpha_k c[k]      (per link)
               sum_k alpha_k = 1, alpha >= 0, y >= 0

where ``R`` is the binary routing matrix (links x flows), the ``c[k]``
are the extreme points of the feasibility region and ``U`` is an
alpha-fair utility.  The throughput-maximising case (alpha = 0) and the
max-min-fair case are linear programs (scipy's ``linprog``, imported by
the solve that needs it); the general case is a small, smooth concave
program solved in plain numpy by a primal-dual interior-point Newton
iteration (Boyd & Vandenberghe, *Convex Optimization*, Section 11.7,
with the centering of Mehrotra's 1992 predictor).  From a strictly
interior start, each step solves the linearized KKT system
``[[H + D_x, A^T, e], [A, -D_s, 0], [e^T, 0, 0]]``, ``A = [R, -C^T]``,
once for the affine-scaling and the centering direction, aims every
slack x multiplier product at (predicted / current gap)^3 of their
mean, and moves all variables by one step length: at most 0.999 of the
way to the boundary, halved until the KKT residual norm falls.  It ends
when gap + |dual residual| |x|, a bound on the distance to the optimum,
is within 1e-10 of ``sum_s y_s U'(y_s)``; anything else comes back as
``success=False`` with the residuals in the message.  Rates are
normalised internally so the solver sees well-conditioned numbers
whether capacities are in b/s or Mb/s.  The solver carries only the
extreme points no other point dominates: under free disposal the
dominated ones (every primary point, for one) cannot change the
optimum, and their weights come back as exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extreme_points import FeasibilityRegion, non_dominated_rows
from repro.core.utility import AlphaFairUtility
from repro.net.routing import RoutingMatrix


#: The interior-point iteration of ``RateOptimizer._solve_concave``.
_MAX_NEWTON_STEPS = 500
_BOUNDARY_FRACTION = 0.999
_MIN_STEP = 1e-10
_OBJECTIVE_TOLERANCE = 1e-10
_FEASIBILITY_TOLERANCE = 1e-9


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
        self._capacity_rows = np.hstack([routing.matrix, -self._c.T])

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
        # Loaded at the first LP: a process that solves none (drainer, broker,
        # proportional-fair controller) does not pay for scipy.optimize.
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
        a_ub[:, : num_flows + num_points] = self._capacity_rows
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
        num_links, num_flows = self._r.shape
        n = self._capacity_rows.shape[1]
        m = n + num_links
        fairness = self.utility.alpha
        # Equilibrated units: a link row in units of its capacity under
        # uniform alpha, a flow in units of half its tightest per-link
        # share of that budget, so y = 1, alpha = 1 / K is interior.
        x = np.ones(n)
        x[num_flows:] /= n - num_flows
        budget = x[num_flows:] @ self._c
        share = budget / np.maximum(self._r.sum(axis=1), 1.0)
        floor = self.rate_floor / self._scale
        rate_unit = np.maximum(2 * floor, 0.5 * np.where(self._r.T > 0, share, np.inf).min(axis=1))
        rows = self._capacity_rows / np.where(budget > 0.0, budget, 1.0)[:, None]
        rows[:, :num_flows] *= rate_unit
        weight = rate_unit ** (1.0 - fairness)  # U'(y) = weight y^-alpha in those units
        weight /= weight.max()
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

        def residuals(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            grad = -weight * z[:num_flows] ** -fairness
            res = constant @ z[: m + 1]  # [dual (n), link rows (L), simplex]
            res[:m] -= sign * z[m + 1 :]
            res[:num_flows] += grad
            res[m] -= 1.0
            return grad, res

        grad, res = residuals(z)
        rhs, dz, weights = np.zeros((m + 1, 2)), np.empty((2, 2 * m + 1)), np.ones(2)
        # inf / nan (the floor does not fit) end the loop as a failure.
        with np.errstate(all="ignore"):
            for iteration in range(_MAX_NEWTON_STEPS):
                # Keep the largest marginal utility near 1 as the rates move.
                if not 0.5 < (rescale := -1.0 / grad.min()) < 2.0:
                    weight *= rescale
                    z[n : m + 1 + n] *= rescale
                    grad, res[:n] = grad * rescale, res[:n] * rescale
                positive = z - lower
                first, second = positive[:m], positive[m + 1 :]
                gap, error = first @ second, np.abs(res)
                # gap + |dual residual| |x| bounds the distance to the optimum
                # (the gap alone says no until the last steps).
                tolerance = _OBJECTIVE_TOLERANCE * -(grad @ z[:num_flows])
                if converged := gap <= tolerance and (
                    gap + error[:n].max() * z[:n].sum() <= tolerance
                    and error[n:].max() <= _FEASIBILITY_TOLERANCE
                ):
                    break
                ratio = second / first
                diagonal[:] = sign * ratio
                diagonal[:num_flows] -= fairness * grad / z[:num_flows]
                # Two right-hand sides: the affine-scaling step, and the
                # change per unit of centering target.
                rhs[:m, 0] = -res[:m] - sign * second
                rhs[m, 0] = -res[m]
                rhs[:m, 1] = sign / first
                try:
                    dz[:, : m + 1] = np.linalg.solve(kkt, rhs).T
                except np.linalg.LinAlgError:
                    break
                dz[:, m + 1 :] = [-second, 1.0 / first] - ratio * dz[:, :m]
                # -1 / min(reach) is the step at which a pair's side hits zero.
                reach = dz / positive
                a = -1.0 / min(reach[0].min(), -1.0)
                # The affine step takes a off every product, to first order.
                affine_gap = (1.0 - a) * gap + a * a * (dz[0, :m] @ dz[0, m + 1 :])
                weights[1] = target = max((affine_gap / gap) ** 3 * gap, 0.1 * tolerance) / m
                step = weights @ dz
                a = -_BOUNDARY_FRACTION / min((weights @ reach).min(), -_BOUNDARY_FRACTION)
                # Backtrack on the perturbed KKT residual's norm.
                centrality = first * second - target
                norm2 = res @ res + centrality @ centrality
                while a > _MIN_STEP:
                    trial = z + a * step
                    grad, res = residuals(trial)
                    centrality = (trial[:m] - lower[:m]) * trial[m + 1 :] - target
                    if res @ res + centrality @ centrality <= (1.0 - 0.01 * a) ** 2 * norm2:
                        break
                    a *= 0.5
                else:  # nothing lowers it: the floor does not fit, or precision ran out
                    break
                z = trial
        found = "optimum" if converged else "no optimum"
        message = f"interior point: {found} after {iteration} Newton steps (gap {gap:.3g}, dual "
        message += f"residual {error[:n].max():.3g}, primal residual {error[n:].max():.3g})"
        rates = z[:num_flows] * rate_unit * self._scale
        return self._package(rates, z[num_flows:n], bool(converged), message)

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
