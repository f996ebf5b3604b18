"""The paper's measure -> model -> optimize loop, one equation at a time:
plain loops over links, pairs, subsets and window sizes, reading nothing
of the shipped code but its data (``CapacityModel``'s frame timings, the
``ProbeWindow`` it is handed).  The tests hold the shipped array passes
to these with ``==``, never a tolerance; only the Section 6.1 programs,
solved by scipy (HiGHS ``linprog``, SLSQP), referee within tolerances.
Whether a change keeps the shipped code's own bits is answered against
git's base commit by ``tests/parent_bits.py``."""

from __future__ import annotations

import numpy as np

from repro.core.capacity import CapacityModel


# ------------------------------------------------------- window loss (§5.2)
class HeardLog(dict):
    """The sequence numbers each probe stream delivered, a set per
    ``(sender, receiver, label)``: a probe is lost unless it was heard."""

    def record(self, key, seq):
        self.setdefault(key, set()).add(seq)

    def loss_series(self, key, start, sent):
        """1 for each probe of ``[start, sent)`` not heard, in send order."""
        heard = self.get(key, set())
        return np.array([0 if seq in heard else 1 for seq in range(start, sent)], dtype=int)

    def loss_rate(self, key, start, sent):
        """The lost fraction of ``[start, sent)``; 1.0 for an empty window."""
        if sent == start:
            return 1.0
        return int(self.loss_series(key, start, sent).sum()) / (sent - start)


def loss_rates(log, nodes, label, sent, last_n=None):
    """``{(sender, receiver): loss}`` of every ordered pair of ``nodes``
    whose sender sent probes of ``label``; ``sent[sender]`` counts them."""
    table = {}
    for sender in nodes:
        total = sent[sender]
        start = 0 if last_n is None else max(0, total - last_n)
        for receiver in nodes if total else ():
            if receiver != sender:
                table[sender, receiver] = log.loss_rate((sender, receiver, label), start, total)
    return table


# ------------------------------------------------------ loss estimator (§5.3)
def sliding_min_loss_curve(loss_series, min_window=10):
    """``(W, p_ch^(W))`` for W in [Wmin, S]: the fewest losses any W
    consecutive probes hold, over W."""
    lost = np.asarray(loss_series, dtype=bool).astype(int)
    total = lost.size
    if total == 0:
        raise ValueError("loss series is empty")
    sizes = np.arange(min(min_window, total), total + 1)
    counts = np.concatenate(([0], np.cumsum(lost)))
    curve = [int((counts[w:] - counts[:-w]).min()) / int(w) for w in sizes]
    return sizes, np.array(curve, dtype=float)


def knee_of_log_fit(sizes, curve):
    """``(W*, (a, b), flat)``: the fit ``a ln(w) + b``, the window of the
    normalized fit's largest curvature (end points excluded when there
    are more than four), and whether a flat fit chose the first window."""
    if sizes.size == 1:
        return int(sizes[0]), (0.0, float(curve[0])), False
    log_sizes = np.log(sizes.astype(float))
    a, b = np.polyfit(log_sizes, curve, 1)
    fitted = a * log_sizes + b
    span_x, span_y = float(sizes[-1] - sizes[0]), float(fitted[-1] - fitted[0])
    if span_x <= 0 or abs(span_y) < 1e-12:
        return int(sizes[0]), (float(a), float(b)), True
    x, y = (sizes - sizes[0]) / span_x, (fitted - fitted[0]) / span_y
    dy = np.gradient(y, x)
    curvature = np.abs(np.gradient(dy, x)) / (1.0 + dy**2) ** 1.5
    inner = curvature.size > 4
    knee = int(np.argmax(curvature[1:-1] if inner else curvature)) + inner
    return int(sizes[knee]), (float(a), float(b)), False


def estimate_channel_loss_rate(loss_series, min_window=10, case1_fraction=0.99):
    """``(measured, channel loss, case, W, fit)``.  Case 1: the curve
    reaches ``0.99 p`` at some ``W <= S/2`` (or nothing was lost), and
    the channel loss is ``p``.  Case 2: the curve at the knee, at most
    ``p``."""
    series = np.asarray(loss_series, dtype=bool).astype(int)
    sizes, curve = sliding_min_loss_curve(series, min_window)
    measured = float(series.mean())
    if measured == 0.0:
        return 0.0, 0.0, 1, int(sizes[-1]), None
    for size, value in zip(sizes, curve):
        if size <= series.size / 2 and value >= case1_fraction * measured:
            return measured, measured, 1, int(size), None
    window, fit, _ = knee_of_log_fit(sizes, curve)
    return measured, min(float(curve[window - sizes[0]]), measured), 2, window, fit


# ------------------------------------------------------------ capacity (Eq. 6)
def max_udp_throughput_bps(model: CapacityModel, loss_rate):
    """Eq. (6) for a loss rate in [0, 1): ETX attempts, each a DATA/ACK
    cycle, plus the mean backoff of every stage the attempts reach."""
    mac = model.mac
    etx = 1.0 / (1.0 - loss_rate)
    attempts, m = int(etx), mac.max_backoff_stage
    slots = 0.0
    for stage in range(1, min(attempts, m)):
        slots += (min(2**stage * mac.w0, mac.wmax) - 1) / 2.0
    if etx >= m:
        slots += (attempts - m) * (mac.wmax - 1) / 2.0
    idle = mac.slot_s * max(slots, 0.0)
    return model.payload_bytes * 8 / (etx * model.cycle_time_s() + idle)


# ------------------------------------------------------------ two-hop model (§5.5)
def connectivity(loss_rates, delivery_threshold=0.5):
    """Neighbours: the pairs whose probes get through in at least one
    direction with a delivery ratio of at least ``delivery_threshold``."""
    neighbors = {}
    for (tx, rx), loss in loss_rates.items():
        if 1.0 - loss >= delivery_threshold:
            neighbors.setdefault(tx, set()).add(rx)
            neighbors.setdefault(rx, set()).add(tx)
    return neighbors


def two_hop_adjacency(links, neighbors):
    """Two links conflict when they share an endpoint, or an endpoint of
    one is a neighbour of an endpoint of the other."""
    adjacency = {link: set() for link in links}

    def near(link):
        return set(link).union(*(neighbors.get(node, ()) for node in link))

    for i, link_a in enumerate(links):
        for link_b in links[i + 1 :]:
            if set(link_a) & near(link_b) or set(link_b) & near(link_a):
                adjacency[link_a].add(link_b)
                adjacency[link_b].add(link_a)
    return adjacency


# --------------------------------------------------- the controller's two steps
def estimate_links(window, payload_bytes, min_probes):
    """``{link: (link, data loss, ack loss, channel loss, capacity,
    case)}``: each direction's loss (0.0 when empty, the raw rate under
    ``min_probes``, else §5.3), combined as ``1 - (1 - p_d)(1 - p_a)``
    into Eq. (6)."""

    def direction(series):
        if series.size == 0:
            return 0.0, 1
        if series.size < min_probes:
            return float(series.mean()), 1
        _, channel, case, _, _ = estimate_channel_loss_rate(series)
        return channel, case

    estimates = {}
    for link, probes in window.probes.items():
        (data, data_case), (ack, ack_case) = direction(probes.data), direction(probes.ack)
        channel = 1.0 - (1.0 - data) * (1.0 - ack)
        model = CapacityModel(payload_bytes=payload_bytes, rate=probes.rate, mac=window.mac_config)
        capacity = max_udp_throughput_bps(model, min(channel, 0.999999))
        estimates[link] = (link, data, ack, channel, capacity, max(data_case, ack_case))
    return estimates


def conflict_adjacency(window, connectivity_threshold):
    neighbors = connectivity(window.ack_loss_rates, connectivity_threshold)
    return two_hop_adjacency(list(window.links), neighbors)


# ---------------------------------------------- independent sets and Eq. (4) (§3.2)
def maximal_independent_sets(adjacency):
    """Every subset of the vertices (at most 16) that holds no edge and
    that no outside vertex could join, by sorted member reprs."""
    vertices = list(adjacency)
    if len(vertices) > 16:
        raise ValueError("the subset enumeration stops at 16 vertices")
    found = []
    for mask in range(1, 2 ** len(vertices)):
        members = {v for i, v in enumerate(vertices) if mask >> i & 1}
        if any(adjacency[v] & members for v in members):
            continue
        if all(adjacency[v] & members for v in vertices if v not in members):
            found.append(frozenset(members))
    return sorted(found, key=lambda members: sorted(map(repr, members)))


def maximal_cliques(adjacency):
    """The maximal independent sets of the complement graph."""
    vertices = set(adjacency)
    return maximal_independent_sets({v: vertices - {v} - set(adjacency[v]) for v in adjacency})


def extreme_points(capacities, links, adjacency):
    """Section 3.2: one primary point per link (that link at capacity),
    then Eq. (4), one secondary point per maximal independent set."""
    rows = [[capacities[b] if a == b else 0.0 for b in links] for a in links]
    for members in maximal_independent_sets(adjacency):
        rows.append([capacities[link] if link in members else 0.0 for link in links])
    return np.array(rows, dtype=float)


# --------------------------------------------------------- the programs (§6.1)
def slsqp_solve(optimizer):
    """The concave program of ``optimizer`` (its presolved points, in its
    units) through SLSQP: ``(flow rates, weights, success)``.  SLSQP stops
    on a relative change of the objective, up to 1e-5 short of the
    optimum, so it referees from below and within tolerances."""
    from scipy.optimize import minimize

    from repro.core.utility import AlphaFairUtility

    routing, points = optimizer._r, optimizer._c
    num_flows, num_points = routing.shape[1], points.shape[0]
    floor = optimizer.rate_floor / optimizer._scale
    utility = AlphaFairUtility(alpha=optimizer.utility.alpha, rate_floor=floor)
    slack_jac = np.hstack([-routing, points.T])
    simplex_jac = np.concatenate([np.zeros(num_flows), np.ones(num_points)])
    # Uniform weights; each flow at half its tightest per-link share.
    alpha0 = np.full(num_points, 1.0 / num_points)
    share = (points.T @ alpha0) / np.maximum(routing.sum(axis=1), 1.0)
    y0 = np.full(num_flows, max(floor, 1e-6))
    for flow in range(num_flows):
        on_route = routing[:, flow] > 0
        if on_route.any():
            y0[flow] = max(floor, 0.5 * share[on_route].min())
    # SLSQP's first step is the raw gradient: in units of the starting
    # objective it is O(1), and ftol is relative.
    unit = 1.0 / max(1.0, abs(utility.value(y0)))
    result = minimize(
        lambda x: -unit * utility.value(x[:num_flows]),
        np.concatenate([y0, alpha0]),
        jac=lambda x: np.concatenate(
            [-unit * utility.gradient(x[:num_flows]), np.zeros(num_points)]
        ),
        bounds=[(floor, None)] * num_flows + [(0.0, 1.0)] * num_points,
        constraints=[
            {"type": "ineq", "fun": lambda x: slack_jac @ x, "jac": lambda x: slack_jac},
            {"type": "eq", "fun": lambda x: simplex_jac @ x - 1.0, "jac": lambda x: simplex_jac},
        ],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-10},
    )
    x = np.maximum(result.x, 0.0)
    return x[:num_flows] * optimizer._scale, x[num_flows:], bool(result.success)


def _highs(objective, a_ub, b_ub, on_simplex):
    """HiGHS ``linprog``, every variable non-negative and the weights
    ``on_simplex`` summing to 1."""
    from scipy.optimize import linprog

    a_eq = np.zeros((1, objective.size))
    a_eq[0, on_simplex] = 1.0
    bounds = [(0.0, None)] * objective.size
    return linprog(
        objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs"
    )


def linprog_solve(optimizer, max_min):
    """Max-throughput (``sum y``) or max-min (``t <= y_s``) over ``R y <=
    C^T alpha`` on ``optimizer``'s presolved program: ``(flow rates,
    weights, success)``."""
    routing, points = optimizer._r, optimizer._c
    (num_links, num_flows), num_points = routing.shape, points.shape[0]
    extra = int(max_min)  # variables [y, alpha, t if max-min]
    weights = slice(num_flows, num_flows + num_points)
    objective = np.zeros(num_flows + num_points + extra)
    objective[-1 if max_min else slice(num_flows)] = -1.0
    a_ub = np.hstack([routing, -points.T, np.zeros((num_links, extra))])
    if max_min:
        t_rows = [-np.eye(num_flows), np.zeros((num_flows, num_points)), np.ones((num_flows, 1))]
        a_ub = np.vstack([a_ub, np.hstack(t_rows)])
    result = _highs(objective, a_ub, np.zeros(len(a_ub)), weights)
    return result.x[:num_flows] * optimizer._scale, result.x[weights], bool(result.success)


def linprog_contains(region, rates, tolerance=1e-9):
    """Region membership: some weights on the simplex with ``C^T alpha >=
    y - tolerance``."""
    y = np.asarray(rates, dtype=float)
    if np.any(y < -tolerance):
        return False
    points = region.extreme_points
    return bool(_highs(np.zeros(len(points)), -points.T, -(y - tolerance), slice(None)).success)


def linprog_max_scaling(region, direction):
    """The largest theta with ``theta d`` in the region."""
    d = np.asarray(direction, dtype=float)
    if np.allclose(d, 0.0):
        return 0.0
    points = region.extreme_points
    objective = np.zeros(1 + len(points))
    objective[0] = -1.0
    a_ub = np.hstack([d[:, None], -points.T])
    result = _highs(objective, a_ub, np.zeros(region.num_links), slice(1, None))
    assert result.success, result.message
    return float(result.x[0])
