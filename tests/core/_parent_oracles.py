"""Reference implementations the controller's fast paths are held to.

The measure/model functions are the code the repository ran before the
controller's measure -> model half became one array pass (commit
a7c0de8), kept verbatim apart from names and return shapes: one probe
series at a time through ``np.polyfit`` + ``np.gradient``, one pairwise
set-algebra test per link pair, both read from the same ``ProbeWindow``
the controller decides from.  The one exception is the min-loss curve, which is the definition
itself (a loop over window sizes; that commit's gather was already held
to it).  The tests require ``==`` against them — equality, never a
tolerance.

Beside them sit the list and set code the array pass from probe log to
extreme points replaced (commit 0dd2ff3): the ascending list of heard
sequence numbers per probe stream (``ListProbeLog``), ``loss_rates`` as
one ``loss_rate`` per ordered pair, the dict-of-sets connectivity and
reach-set two-hop relation, Eq. (6) one link at a time with its
per-stage backoff loop, set-based Bron–Kerbosch with its ``repr`` sort,
and the K x L loop filling the secondary extreme points.

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

Last, ``solve_rate_program`` / ``_interior_point``, ``non_dominated_rows``
and ``probe_window`` are the code of commit cdda2ef, before the Newton
step moved to work arrays, the presolve to a dominance count and the
window read to one stacked pass: the allocating step with ``ndarray.min``
and numpy scalars, the ``K x K x L`` comparison, one ``loss_series`` per
link direction stacked again.  The tests hold the new code to them byte
for byte.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.core.capacity import CapacityModel, combine_data_ack_losses


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


# ------------------------------------------------------- probe logs (§5.2)
class ListProbeLog:
    """One ``ProbingSystem`` stream store as a dict of ascending lists of
    heard sequence numbers: ``record`` is the old ``_record``, the readers
    the old ``loss_series`` / ``loss_rate`` for one window ``[start, sent)``."""

    def __init__(self):
        self.logs = {}

    def record(self, key, seq):
        received = self.logs.setdefault(key, [])
        if not received or seq > received[-1]:
            received.append(seq)
        elif seq not in received:
            insort(received, seq)

    def loss_series(self, key, start, sent):
        series = np.ones(sent - start, dtype=int)
        received = self.logs.get(key)
        if received is not None:
            heard = received[bisect_left(received, start) :]
            series[np.array(heard, dtype=int) - start] = 0
        return series

    def loss_rate(self, key, start, sent):
        if sent == start:
            return 1.0
        received = self.logs.get(key)
        heard = 0 if received is None else len(received) - bisect_left(received, start)
        return (sent - start - heard) / (sent - start)


def loss_rates(probing, kind="data", last_n=None):
    """``ProbingSystem.loss_rates`` as one ``loss_rate`` per ordered pair."""
    table = {}
    for sender in probing.nodes:
        sent = probing.probes_sent(sender, kind)
        for receiver in probing.nodes if sent else ():
            if receiver != sender:
                table[sender, receiver] = probing.loss_rate(sender, receiver, kind, last_n)
    return table


# ------------------------------------------------------ two-hop model (§5.5)
def connectivity_from_loss_rates(loss_rates, delivery_threshold=0.5):
    """The symmetric neighbour map of the pairs whose probes get through in
    at least one direction with delivery ratio ``>= delivery_threshold``."""
    neighbors = {}
    for (tx, rx), loss in loss_rates.items():
        if 1.0 - loss >= delivery_threshold:
            neighbors.setdefault(tx, set()).add(rx)
            neighbors.setdefault(rx, set()).add(tx)
    return neighbors


def from_two_hop(links, neighbors):
    """``PairwiseInterferenceMap.from_two_hop``: one reach set per link
    endpoint, one extended set per link, one disjointness test per pair;
    returns the adjacency."""
    links = list(links)
    adjacency = {link: set() for link in links}
    reach = {node: {node, *neighbors.get(node, ())} for link in links for node in link}
    extended = {link: reach[link[0]] | reach[link[1]] for link in links}
    for i, link_a in enumerate(links):
        near_a = extended[link_a]
        for link_b in links[i + 1 :]:
            if not (near_a.isdisjoint(link_b) and extended[link_b].isdisjoint(link_a)):
                adjacency[link_a].add(link_b)
                adjacency[link_b].add(link_a)
    return adjacency


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


# ------------------------------------------------ Eq. (6), one link at a time
def max_udp_throughput_bps(model, loss_rate):
    """``CapacityModel.max_udp_throughput_bps`` with its per-stage backoff
    loop, for a loss rate in [0, 1)."""
    mac = model.mac

    def backoff_sum_slots(first_stage, last_stage):
        total = 0.0
        for stage in range(first_stage, last_stage + 1):
            window = min((2**stage) * mac.w0, mac.wmax)
            total += (window - 1) / 2.0
        return total

    etx_value = 1.0 / (1.0 - loss_rate)
    m = mac.max_backoff_stage
    attempts = int(etx_value)
    if etx_value < m:
        slots = backoff_sum_slots(1, attempts - 1)
    else:
        slots = backoff_sum_slots(1, m - 1)
        slots += (attempts - m) * (mac.wmax - 1) / 2.0
    idle = mac.slot_s * max(slots, 0.0)
    busy = etx_value * model.cycle_time_s()
    return model.payload_bytes * 8 / (busy + idle)


# ----------------------------------------------- cliques and extreme points (§3.2)
def _validate_adjacency(adjacency):
    graph = {v: set(neigh) for v, neigh in adjacency.items()}
    for vertex, neighbours in graph.items():
        if vertex in neighbours:
            raise ValueError(f"self-loop on vertex {vertex!r}")
        for other in neighbours:
            if other not in graph:
                raise ValueError(f"edge to unknown vertex {other!r}")
            if vertex not in graph[other]:
                raise ValueError("adjacency must be symmetric")
    return graph


def complement_graph(adjacency):
    graph = _validate_adjacency(adjacency)
    vertices = set(graph)
    return {v: (vertices - {v}) - graph[v] for v in graph}


def _expand(graph, r, p, x):
    if not p and not x:
        yield frozenset(r)
        return
    pivot = max(p | x, key=lambda v: len(graph[v] & p))
    for vertex in list(p - graph[pivot]):
        yield from _expand(graph, r | {vertex}, p & graph[vertex], x & graph[vertex])
        p.remove(vertex)
        x.add(vertex)


def maximal_cliques(adjacency):
    """Set-based Bron–Kerbosch with pivoting, sorted by member reprs."""
    graph = _validate_adjacency(adjacency)
    cliques = list(_expand(graph, set(), set(graph), set())) if graph else []
    return sorted(cliques, key=lambda c: sorted(map(repr, c)))


def maximal_independent_sets(adjacency):
    return maximal_cliques(complement_graph(adjacency))


def secondary_extreme_points(capacities, conflict_graph, links):
    """One row per maximal independent set, filled link by link."""
    independent_sets = maximal_independent_sets(conflict_graph.adjacency)
    matrix = np.zeros((len(independent_sets), len(links)), dtype=float)
    for row, members in enumerate(independent_sets):
        for col, link in enumerate(links):
            if link in members:
                matrix[row, col] = capacities[link]
    return matrix


# ------------------------------------------------- the controller's two steps
def estimate_direction(series, min_probes):
    if series.size == 0:
        return 0.0, 1
    if series.size < min_probes:
        return float(series.mean()), 1
    _, channel, case, _, _ = estimate_channel_loss_rate(series)
    return channel, case


def estimate_links(window, payload_bytes, min_probes):
    """``{link: (link, data_loss, ack_loss, channel_loss, capacity_bps,
    estimator_case)}`` of a ``ProbeWindow``, one link and one direction at
    a time."""
    estimates = {}
    for link, probes in window.probes.items():
        data_loss, data_case = estimate_direction(probes.data, min_probes)
        ack_loss, ack_case = estimate_direction(probes.ack, min_probes)
        channel_loss = combine_data_ack_losses(data_loss, ack_loss)
        model = CapacityModel(payload_bytes=payload_bytes, rate=probes.rate, mac=window.mac_config)
        estimates[link] = (
            link,
            data_loss,
            ack_loss,
            channel_loss,
            model.max_udp_throughput_bps(min(channel_loss, 0.999999)),
            max(data_case, ack_case),
        )
    return estimates


def conflict_adjacency(window, connectivity_threshold):
    neighbors = connectivity_from_loss_rates(window.ack_loss_rates, connectivity_threshold)
    return two_hop_adjacency(window.links, neighbors)


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


# --------------------------------------------- the controller cycle, bit for bit
def solve_rate_program(points, routing, fairness, floor=0.0):
    """``optimizer.solve_rate_program`` at commit cdda2ef."""
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


_MAX_NEWTON_STEPS = 500
_BOUNDARY_FRACTION = 0.999
_MIN_STEP = 1e-10
_OBJECTIVE_TOLERANCE = 1e-10
_FEASIBILITY_TOLERANCE = 1e-9


def _interior_point(points, routing, fairness, floor):
    """``optimizer._interior_point`` at commit cdda2ef: a fresh array per
    operation, ``ndarray.min`` and numpy scalars."""
    num_links, num_flows = routing.shape
    capacity_rows = np.hstack([routing, -points.T])
    n = capacity_rows.shape[1]
    m = n + num_links
    # Equilibrated units: a link row in units of its capacity under
    # uniform alpha, a flow in units of half its tightest per-link
    # share of that budget, so y = 1, alpha = 1 / K is interior.
    x = np.ones(n)
    x[num_flows:] /= n - num_flows
    budget = x[num_flows:] @ points
    share = budget / np.maximum(routing.sum(axis=1), 1.0)
    rate_unit = np.maximum(2 * floor, 0.5 * np.where(routing.T > 0, share, np.inf).min(axis=1))
    rows = capacity_rows / np.where(budget > 0.0, budget, 1.0)[:, None]
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

    def residuals(z):
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
    return z[:num_flows] * rate_unit, z[num_flows:n], bool(converged), message


def non_dominated_rows(points):
    """``extreme_points.non_dominated_rows`` at commit cdda2ef, its K x K x L
    comparison in one piece."""
    geq = (points[:, None, :] >= points[None, :, :]).all(axis=2)  # [i, j]: row i >= row j
    dominated = (geq & ~geq.T).any(axis=0) | np.triu(geq & geq.T, k=1).any(axis=0)
    return np.flatnonzero(~dominated)


def probe_window(network, links, last_n):
    """``MeshNetwork.probe_window`` at commit cdda2ef: one ``loss_series``
    per link direction, stacked again by ``ProbeWindow.from_probes``."""
    from repro.core.controller import LinkProbes, ProbeWindow

    probing = network.probing
    if probing is None:
        raise RuntimeError("probing is not enabled on the network")
    probes = {}
    for tx, rx in links:
        rate = network.link_rate((tx, rx))
        probes[tx, rx] = LinkProbes(
            rate,
            probing.loss_series(tx, rx, "data", last_n, rate),
            probing.loss_series(rx, tx, "ack", last_n),
        )
    return ProbeWindow.from_probes(
        probes, list(probing.nodes), probing.loss_table("ack", last_n), network.mac_config
    )
