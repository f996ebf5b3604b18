"""Reference implementations the controller's fast paths are held to.

The measure/model functions are the code the repository ran before the
controller's measure -> model half became one array pass (commit
a7c0de8), kept verbatim apart from names and return shapes: one probe
series at a time through ``np.polyfit`` + ``np.gradient``, one pairwise
set-algebra test per link pair, one ``loss_rate`` call per ordered node
pair.  The one exception is the min-loss curve, which is the definition
itself (a loop over window sizes; that commit's gather was already held
to it).  The tests require ``==`` against them — equality, never a
tolerance.

``slsqp_solve`` is the concave solve as it ran until commit ab5e9dd,
before the interior-point iteration replaced it: the only place
``scipy.optimize.minimize`` still appears.  SLSQP stops on a relative
change of the objective, up to 1e-5 short of the optimum, so it referees
with tolerances, and only from below on the objective.

``linprog_solve``, ``linprog_contains`` and ``linprog_max_scaling`` are
the three linear programs as they ran on HiGHS until the interior-point
iteration took them over too: the max-throughput and max-min solves,
region membership and the scaling factor.  They are the only place
``scipy.optimize.linprog`` still appears.
"""

from __future__ import annotations

import numpy as np

from repro.core.capacity import CapacityModel, combine_data_ack_losses
from repro.core.interference import connectivity_from_loss_rates


# ------------------------------------------------------- loss estimator (§5.3)
def sliding_min_loss_curve(loss_series, min_window=10):
    series = np.asarray(loss_series, dtype=float)
    total = series.size
    if total == 0:
        raise ValueError("loss series is empty")
    min_window = min(min_window, total)
    cumulative = np.concatenate(([0.0], np.cumsum(series)))
    sizes = np.arange(min_window, total + 1)
    minima = np.empty(sizes.size, dtype=float)
    for index, window in enumerate(sizes):
        window_sums = cumulative[window:] - cumulative[:-window]
        minima[index] = window_sums.min() / window
    return sizes, minima


def knee_of_log_fit(sizes, curve):
    """``(W*, (a, b), flat)``: the fitted knee, the fit, and whether the
    flat-fit guard chose the window."""
    if sizes.size == 1:
        return int(sizes[0]), (0.0, float(curve[0])), False
    log_sizes = np.log(sizes.astype(float))
    a, b = np.polyfit(log_sizes, curve, 1)
    fitted = a * log_sizes + b
    span_x = float(sizes[-1] - sizes[0])
    span_y = float(fitted[-1] - fitted[0])
    if span_x <= 0 or abs(span_y) < 1e-12:
        return int(sizes[0]), (float(a), float(b)), True
    x = (sizes - sizes[0]) / span_x
    y = (fitted - fitted[0]) / span_y
    dy = np.gradient(y, x)
    d2y = np.gradient(dy, x)
    curvature = np.abs(d2y) / (1.0 + dy**2) ** 1.5
    if curvature.size > 4:
        knee_index = 1 + int(np.argmax(curvature[slice(1, -1)]))
    else:
        knee_index = int(np.argmax(curvature))
    return int(sizes[knee_index]), (float(a), float(b)), False


def estimate_channel_loss_rate(loss_series, min_window=10, case1_fraction=0.99):
    """``(measured, channel loss, case, selected window, coefficients)``."""
    series = np.asarray(loss_series, dtype=float)
    measured = float(series.mean()) if series.size else 0.0
    sizes, curve = sliding_min_loss_curve(series, min_window)
    total = series.size
    if measured == 0.0:
        return 0.0, 0.0, 1, int(sizes[-1]), None
    threshold = case1_fraction * measured
    half_mask = sizes <= total / 2
    if np.any(curve[half_mask] >= threshold):
        window = int(sizes[half_mask][np.argmax(curve[half_mask] >= threshold)])
        return measured, measured, 1, window, None
    selected_window, coefficients, _ = knee_of_log_fit(sizes, curve)
    position = int(np.searchsorted(sizes, selected_window))
    position = min(position, curve.size - 1)
    estimate = float(curve[position])
    return measured, min(estimate, measured), 2, selected_window, coefficients


# ------------------------------------------------------ two-hop model (§5.5)
def two_hop_adjacency(links, neighbors):
    """The pairwise definition: two links conflict when they share an
    endpoint, or an endpoint of one is a neighbour of an endpoint of the
    other."""
    links = list(links)
    adjacency = {link: set() for link in links}

    def reach(node):
        return {node} | set(neighbors.get(node, set()))

    for i, link_a in enumerate(links):
        endpoints_a = set(link_a)
        extended_a = reach(link_a[0]) | reach(link_a[1])
        for link_b in links[i + 1 :]:
            endpoints_b = set(link_b)
            extended_b = reach(link_b[0]) | reach(link_b[1])
            if (
                endpoints_a & endpoints_b
                or endpoints_a & extended_b
                or endpoints_b & extended_a
            ):
                adjacency[link_a].add(link_b)
                adjacency[link_b].add(link_a)
    return adjacency


# ------------------------------------------------- the controller's two steps
def estimate_direction(series, min_probes):
    if series.size == 0:
        return 0.0, 1
    if series.size < min_probes:
        return float(series.mean()), 1
    _, channel, case, _, _ = estimate_channel_loss_rate(series)
    return channel, case


def estimate_links(controller):
    """``{link: (link, data_loss, ack_loss, channel_loss, capacity_bps,
    estimator_case)}``, one link and one direction at a time."""
    network, probing = controller.network, controller.network.probing
    estimates = {}
    for link in controller.links:
        tx, rx = link
        rate = network.link_rate(link)
        data_series = probing.loss_series(
            tx, rx, "data", last_n=controller.probing_window, rate=rate
        )
        ack_series = probing.loss_series(rx, tx, "ack", last_n=controller.probing_window)
        data_loss, data_case = estimate_direction(
            data_series, controller.min_probes_for_estimator
        )
        ack_loss, ack_case = estimate_direction(ack_series, controller.min_probes_for_estimator)
        channel_loss = combine_data_ack_losses(data_loss, ack_loss)
        model = CapacityModel(
            payload_bytes=controller.payload_bytes, rate=rate, mac=network.mac_config
        )
        estimates[link] = (
            link,
            data_loss,
            ack_loss,
            channel_loss,
            model.max_udp_throughput_bps(min(channel_loss, 0.999999)),
            max(data_case, ack_case),
        )
    return estimates


def conflict_adjacency(controller):
    network, probing = controller.network, controller.network.probing
    loss_rates = {}
    for tx in network.node_ids:
        if probing.probes_sent(tx, "ack") == 0:
            continue
        for rx in network.node_ids:
            if tx != rx:
                loss_rates[(tx, rx)] = probing.loss_rate(tx, rx, "ack", controller.probing_window)
    neighbors = connectivity_from_loss_rates(loss_rates, controller.connectivity_threshold)
    return two_hop_adjacency(controller.links, neighbors)


# ----------------------------------------------------- the concave solve (§6.1)
def slsqp_solve(optimizer):
    """``RateOptimizer._solve_concave`` at commit ab5e9dd, on the same
    presolved program: ``(flow rates, kept-point weights, success)``."""
    from scipy.optimize import minimize

    from repro.core.utility import AlphaFairUtility

    routing, points = optimizer._r, optimizer._c
    num_flows = routing.shape[1]
    num_points = points.shape[0]
    floor = optimizer.rate_floor / optimizer._scale
    utility = AlphaFairUtility(alpha=optimizer.utility.alpha, rate_floor=floor)
    slack_jac = np.hstack([-routing, points.T])
    simplex_jac = np.concatenate([np.zeros(num_flows), np.ones(num_points)])

    # Feasible starting point: uniform alpha, then shrink a uniform
    # flow vector until it fits inside the per-link budgets.
    alpha0 = np.full(num_points, 1.0 / num_points)
    budget = points.T @ alpha0
    flows_per_link = np.maximum(routing.sum(axis=1), 1.0)
    per_link_share = budget / flows_per_link
    y0 = np.full(num_flows, max(floor, 1e-6))
    for flow_index in range(num_flows):
        links_of_flow = routing[:, flow_index] > 0
        if np.any(links_of_flow):
            y0[flow_index] = max(floor, 0.5 * per_link_share[links_of_flow].min())
    x0 = np.concatenate([y0, alpha0])
    # SLSQP's first step is the raw gradient (its Hessian model starts
    # at I): unscaled, alpha >= 2 on a starved flow overshoots so far
    # that the line search gives up at x0 and reports success.  In
    # units of the starting objective the step is O(1), and ftol is
    # a relative tolerance.
    unit = 1.0 / max(1.0, abs(utility.value(y0)))

    def negative_utility(x):
        return -unit * utility.value(x[:num_flows])

    def negative_utility_grad(x):
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
    return (
        np.maximum(result.x[:num_flows], 0.0) * optimizer._scale,
        np.maximum(result.x[num_flows:], 0.0),
        bool(result.success),
    )


# ------------------------------------------------------ the linear programs
def linprog_solve(optimizer, max_min):
    """``RateOptimizer._solve_linear`` before the iteration took it over,
    on the same presolved program: ``(flow rates, kept-point weights,
    success)``; max-min when ``max_min``, else max-throughput."""
    from scipy.optimize import linprog

    routing, points = optimizer._r, optimizer._c
    num_links, num_flows = routing.shape
    num_points = points.shape[0]
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
    a_ub[:, : num_flows + num_points] = np.hstack([routing, -points.T])
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
    return (
        result.x[:num_flows] * optimizer._scale,
        result.x[num_flows : num_flows + num_points],
        bool(result.success),
    )


def linprog_contains(region, rates, tolerance=1e-9):
    """``FeasibilityRegion.contains`` as one feasibility LP over the weights."""
    from scipy.optimize import linprog

    y = np.asarray(rates, dtype=float)
    if np.any(y < -tolerance):
        return False
    c = region.extreme_points  # (K, L)
    k = region.num_extreme_points
    # C^T alpha >= y - tolerance, sum alpha = 1, alpha >= 0.
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


def linprog_max_scaling(region, direction):
    """``FeasibilityRegion.max_scaling`` as one LP over ``[theta, alpha]``."""
    from scipy.optimize import linprog

    d = np.asarray(direction, dtype=float)
    if np.allclose(d, 0.0):
        return 0.0
    k = region.num_extreme_points
    objective = np.zeros(k + 1)
    objective[0] = -1.0
    a_ub = np.hstack([d.reshape(-1, 1), -region.extreme_points.T])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, 1:] = 1.0
    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=np.zeros(region.num_links),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=[(0.0, None)] * (k + 1),
        method="highs",
    )
    assert result.success, result.message
    return float(result.x[0])
