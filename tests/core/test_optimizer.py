"""Tests for the utility-maximising rate optimizer (Section 6.1)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cliques import adjacency_from_edges
from repro.core.extreme_points import FeasibilityRegion, non_dominated_rows
from repro.core.optimizer import RateOptimizer
from repro.core.utility import MAX_THROUGHPUT, PROPORTIONAL_FAIR, AlphaFairUtility
from repro.net.routing import FlowRoute, build_routing_matrix

from reference import paper
from shapes import DEGENERATE_SHAPES, link_list, make_region, routing_of, two_single_hop_flows


class TestLinearObjectives:
    def test_max_throughput_uses_full_capacity(self):
        region, routing = two_single_hop_flows(interfering=True)
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve()
        assert result.success
        assert result.flow_rates.sum() == pytest.approx(1e6, rel=1e-6)

    def test_max_throughput_independent_links(self):
        region, routing = two_single_hop_flows(interfering=False)
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve()
        assert result.flow_rates.sum() == pytest.approx(2e6, rel=1e-6)

    def test_max_throughput_prefers_high_capacity_link(self):
        region, routing = two_single_hop_flows(c1=2e6, c2=1e6, interfering=True)
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve()
        assert result.flow_rates[0] == pytest.approx(2e6, rel=1e-4)
        assert result.flow_rates[1] == pytest.approx(0.0, abs=2.0)

    def test_max_min_equalises_rates(self):
        region, routing = two_single_hop_flows(c1=2e6, c2=1e6, interfering=True)
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve_max_min()
        assert result.flow_rates[0] == pytest.approx(result.flow_rates[1], rel=1e-5)
        assert result.flow_rates[0] > 0.5e6

    def test_two_flows_through_one_link_get_equal_rates(self):
        """The tie rule: HiGHS gave one flow the whole link; the central
        path splits a tied rate evenly."""
        links = [(0, 1)]
        region = make_region(links, {links[0]: 1e6}, [])
        result = RateOptimizer(region, routing_of(region, [[1, 1]]), MAX_THROUGHPUT).solve()
        assert result.success
        assert result.flow_rates[0] == pytest.approx(result.flow_rates[1], rel=1e-9)
        assert result.flow_rates.sum() == pytest.approx(1e6, rel=1e-9)

    def test_max_min_gives_every_flow_of_a_chain_one_rate(self):
        """Three one-hop flows on a three-link chain whose end links do not
        conflict: the third link could carry more than t*, and HiGHS gave
        it more; max-min is every flow at t*."""
        a, b, c = links = link_list(3)
        region = make_region(links, dict(zip(links, [2e6, 1e6, 3e6])), [(a, b), (b, c)])
        routing = routing_of(region, np.eye(3))
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve_max_min()
        assert result.success
        assert result.flow_rates == pytest.approx([2e6 / 3] * 3, rel=1e-9)
        assert np.ptp(result.flow_rates) == 0.0

    def test_link_rates_consistent_with_routing(self):
        region, routing = two_single_hop_flows()
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve()
        np.testing.assert_allclose(result.link_rates, routing.matrix @ result.flow_rates)


class TestProportionalFairness:
    def test_equal_split_for_symmetric_flows(self):
        region, routing = two_single_hop_flows(interfering=True)
        result = RateOptimizer(region, routing, PROPORTIONAL_FAIR).solve()
        assert result.success
        assert result.flow_rates[0] == pytest.approx(0.5e6, rel=0.01)
        assert result.flow_rates[1] == pytest.approx(0.5e6, rel=0.01)

    def test_proportional_fair_on_chain(self):
        """The classic chain result: the 2-link flow gets half of what the
        1-link flow gets under proportional fairness."""
        links = [(0, 1), (1, 2)]
        region = make_region(
            links, {links[0]: 1e6, links[1]: 1e6}, [(links[0], links[1])]
        )
        flows = [FlowRoute(0, 0, 2, [0, 1, 2]), FlowRoute(1, 1, 2, [1, 2])]
        routing = build_routing_matrix(flows, links=region.links)
        result = RateOptimizer(region, routing, PROPORTIONAL_FAIR).solve()
        # y_long = C/4, y_short = C/2 (2*y_long + y_short = C).
        assert result.flow_rates[0] == pytest.approx(0.25e6, rel=0.05)
        assert result.flow_rates[1] == pytest.approx(0.5e6, rel=0.05)

    def test_no_flow_starves_under_proportional_fairness(self):
        region, routing = two_single_hop_flows(c1=5e6, c2=0.5e6, interfering=True)
        result = RateOptimizer(region, routing, PROPORTIONAL_FAIR).solve()
        assert result.flow_rates.min() > 0.05e6

    def test_rates_stay_feasible(self):
        region, routing = two_single_hop_flows(c1=3e6, c2=1e6, interfering=True)
        result = RateOptimizer(region, routing, PROPORTIONAL_FAIR).solve()
        assert region.contains(result.link_rates * 0.99)

    def test_higher_alpha_is_more_fair(self):
        links = [(0, 1), (1, 2)]
        region = make_region(links, {links[0]: 1e6, links[1]: 1e6}, [(links[0], links[1])])
        flows = [FlowRoute(0, 0, 2, [0, 1, 2]), FlowRoute(1, 1, 2, [1, 2])]
        routing = build_routing_matrix(flows, links=region.links)
        ratios = []
        for alpha in (1.0, 2.0, 4.0):
            result = RateOptimizer(region, routing, AlphaFairUtility(alpha=alpha)).solve()
            ratios.append(result.flow_rates[0] / result.flow_rates[1])
        assert ratios[0] < ratios[1] < ratios[2] <= 1.05

    def test_alpha_weights_sum_to_one(self):
        region, routing = two_single_hop_flows()
        result = RateOptimizer(region, routing, PROPORTIONAL_FAIR).solve()
        assert result.alpha.sum() == pytest.approx(1.0, abs=1e-4)


class TestValidation:
    def test_mismatched_links_rejected(self):
        region, _ = two_single_hop_flows()
        flows = [FlowRoute(0, 0, 1, [0, 1])]
        routing = build_routing_matrix(flows)  # only one link
        with pytest.raises(ValueError):
            RateOptimizer(region, routing, MAX_THROUGHPUT)

    def test_zero_capacity_region_rejected(self):
        links = [(0, 1)]
        region = make_region(links, {links[0]: 0.0}, [])
        flows = [FlowRoute(0, 0, 1, [0, 1])]
        routing = build_routing_matrix(flows, links=region.links)
        with pytest.raises(ValueError):
            RateOptimizer(region, routing, MAX_THROUGHPUT)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.2e6, max_value=8e6),
        st.floats(min_value=0.2e6, max_value=8e6),
        st.booleans(),
    )
    def test_solutions_always_feasible_property(self, c1, c2, interfering):
        region, routing = two_single_hop_flows(c1=c1, c2=c2, interfering=interfering)
        for utility in (MAX_THROUGHPUT, PROPORTIONAL_FAIR):
            result = RateOptimizer(region, routing, utility).solve()
            assert result.success
            assert np.all(result.flow_rates >= -1e-6)
            assert region.contains(result.link_rates * 0.995)


# ------------------------------------------------------------------ presolve
def _full_set_optimum(region, routing, alpha_fair=None):
    """Optimum of the Section 6.1 program over *all* K extreme points
    (``alpha_fair=None``: max-min), in normalised units (rates over the
    largest capacity), written out independently of ``RateOptimizer`` and
    with LPs only - a Newton iteration cannot referee itself.

    The linear cases are one LP.  The concave case is Kelley's cutting
    planes with a line search: every cut is a tangent plane of U, so the
    LP's value is an upper bound on the optimum, U at the best feasible
    point is a lower bound, and the loop ends when the two meet (20 LPs
    at most, 4 on average, over 2 400 random instances).
    """
    from scipy.optimize import linprog, minimize_scalar

    scale = region.extreme_points.max()
    c, r = region.extreme_points / scale, routing.matrix  # (K, L), (L, S)
    (num_points, num_links), num_flows = c.shape, r.shape[1]
    # Variables [y (S), alpha (K), t]: R y <= C^T alpha, sum(alpha) = 1.
    capacity = np.hstack([r, -c.T, np.zeros((num_links, 1))])
    simplex = np.concatenate([np.zeros(num_flows), np.ones(num_points), [0.0]])[None, :]
    # The shipped LPs bound y at 0; the concave program at the rate floor.
    floor = 1.0 / scale if alpha_fair else 0.0
    bounds = [(floor, None)] * num_flows + [(0.0, 1.0)] * num_points + [(None, None)]
    maximize_t = np.concatenate([np.zeros(num_flows + num_points), [-1.0]])

    def lp(cost, rows, rhs):
        a_ub = np.vstack([capacity, rows])
        b_ub = np.concatenate([np.zeros(num_links), rhs])
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=simplex, b_eq=[1.0], bounds=bounds, method="highs")
        assert result.success, result.message
        return result.x[:num_flows], -result.fun

    if alpha_fair == 0.0:
        total = np.concatenate([-np.ones(num_flows), np.zeros(num_points + 1)])
        return lp(total, np.zeros((0, len(total))), [])[1]
    # t <= y_s for every flow: the max-min LP, and a strictly positive
    # feasible point for the cutting planes to start from.
    fairness = np.hstack([-np.eye(num_flows), np.zeros((num_flows, num_points)), np.ones((num_flows, 1))])
    best, max_min = lp(maximize_t, fairness, np.zeros(num_flows))
    if alpha_fair is None:
        return max_min
    utility = AlphaFairUtility(alpha=alpha_fair, rate_floor=floor)
    cuts, rhs = [], []

    def cut(point):  # t <= U(point) + grad . (y - point)
        grad = utility.gradient(point)
        cuts.append(np.concatenate([-grad, np.zeros(num_points), [1.0]]))
        rhs.append(utility.value(point) - grad @ point)

    cut(best)
    for _ in range(60):
        vertex, upper = lp(maximize_t, np.array(cuts), rhs)
        # 1e-7 is what HiGHS resolves; the test compares at 1e-6.
        if upper - utility.value(best) <= 1e-7 * max(1.0, abs(upper)):
            return upper
        # The segment to the LP's vertex is feasible.  Cut half-way (the
        # vertex itself may sit on the floor, where U blows up) and at
        # the segment's best point, the new lower bound.
        step = minimize_scalar(
            lambda s: -utility.value(best + s * (vertex - best)),
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-12},
        ).x
        cut(best + 0.5 * (vertex - best))
        best = best + step * (vertex - best)
        cut(best)
    raise AssertionError("cutting planes did not close the bracket")


@st.composite
def _small_networks(draw, single_hop=False):
    """A conflict graph on <= 6 links with positive capacities and <= 4
    flows, each over 1-3 of the links (exactly one when ``single_hop``)."""
    num_links = draw(st.integers(2, 6))
    links = link_list(num_links)
    pairs = [(a, b) for i, a in enumerate(links) for b in links[i + 1 :]]
    conflicts = [pair for pair in pairs if draw(st.booleans())]
    capacities = {link: draw(st.floats(0.2e6, 6e6)) for link in links}
    region = make_region(links, capacities, conflicts)
    num_flows = draw(st.integers(1, 4))
    matrix = np.zeros((num_links, num_flows))
    for f in range(num_flows):
        hops = 1 if single_hop else draw(st.integers(1, min(3, num_links)))
        used = draw(st.lists(st.integers(0, num_links - 1), min_size=hops, max_size=hops, unique=True))
        matrix[used, f] = 1.0
    return region, routing_of(region, matrix), conflicts


def _assert_consistent(region, result):
    """What every solve owes its caller, presolve or not."""
    kept = non_dominated_rows(region.extreme_points)
    pruned = np.setdiff1d(np.arange(region.num_extreme_points), kept)
    assert result.success
    assert result.alpha.shape == (region.num_extreme_points,)
    assert result.alpha.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(result.alpha[pruned] == 0.0)
    assert region.contains(result.link_rates, tolerance=1e-6 * region.extreme_points.max())


def _normalised_objective(region, result, alpha_fair):
    """U of the shipped rates in the units of ``_full_set_optimum``."""
    scale = region.extreme_points.max()
    if alpha_fair == 0.0:  # no floor: a flow the LP leaves at 0 counts 0
        return result.flow_rates.sum() / scale
    return AlphaFairUtility(alpha=alpha_fair, rate_floor=1.0 / scale).value(result.flow_rates / scale)


#: The interior-point solve stops with the objective certified within
#: 1e-10 of the optimum, relative to sum_s y_s U'(y_s); the oracle's own
#: bracket closes at 1e-7, and that is the distance seen (1e-7 at worst
#: over 6 000 random instances at alpha in {0.5, 1, 2, 3, 4}).
TOLERANCE = 1e-6


def _assert_matches_oracle(region, routing, alpha):
    result = RateOptimizer(region, routing, AlphaFairUtility(alpha=alpha)).solve()
    _assert_consistent(region, result)
    shipped = _normalised_objective(region, result, alpha)
    reference = _full_set_optimum(region, routing, alpha)
    assert shipped == pytest.approx(reference, rel=TOLERANCE, abs=TOLERANCE)
    return result


class TestPresolveOracle:
    """The shipped solve (non-dominated points only) against the same
    program over the full point set.  Compared on the objective, in
    normalised units: the LPs have tied optima, so rates may differ."""

    @settings(max_examples=60, deadline=None)
    @given(_small_networks(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]))
    def test_alpha_fair_optimum_matches_full_point_set(self, network, alpha):
        region, routing, _ = network
        _assert_matches_oracle(region, routing, alpha)

    @settings(max_examples=40, deadline=None)
    @given(_small_networks())
    def test_max_min_optimum_matches_full_point_set(self, network):
        region, routing, _ = network
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve_max_min()
        _assert_consistent(region, result)
        assert result.flow_rates.min() / region.extreme_points.max() == pytest.approx(
            _full_set_optimum(region, routing), rel=TOLERANCE, abs=TOLERANCE
        )

    def test_starved_flows_do_not_stall_the_solver(self):
        """Found by the oracle above: four flows through one 0.24 Mb/s
        link at alpha = 2.  Unscaled, the SLSQP solve this repository
        once used overshot on its first step, its line search gave up,
        and the *starting point* came back with success=True - a fifth
        of the optimum's utility."""
        _assert_matches_oracle(*DEGENERATE_SHAPES["starved flows"](), 2.0)

    @settings(max_examples=40, deadline=None)
    @given(_small_networks(single_hop=True))
    def test_max_throughput_is_the_best_independent_set(self, network):
        """With one-hop flows the alpha = 0 optimum sits on a vertex: the
        maximal independent set (the §3.2 reference's subset enumeration)
        whose flow-carrying links have the largest total capacity."""
        region, routing, conflicts = network
        loaded = routing.matrix.sum(axis=1) > 0
        diagonal = region.extreme_points[: region.num_links].diagonal()
        capacity = dict(zip(region.links, diagonal * loaded))
        sets = paper.maximal_independent_sets(adjacency_from_edges(region.links, conflicts))
        best = max(sum(capacity[link] for link in members) for members in sets)
        result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve()
        _assert_consistent(region, result)
        assert result.flow_rates.sum() == pytest.approx(best, rel=TOLERANCE)


#: How close the linear programs land to the HiGHS referee.
REFEREE_TOLERANCE = 1e-9


def _direction(data, region):
    """A non-negative link-rate direction, zero on some links."""
    rates = st.just(0.0) | st.floats(1e3, 6e6)
    size = region.num_links
    return np.array(data.draw(st.lists(rates, min_size=size, max_size=size)))


class TestLinearProgramReferee:
    """The linear programs against HiGHS ``linprog`` solves of the same
    programs (``reference.paper``): the objective and the scaling factor within
    ``REFEREE_TOLERANCE`` relative, membership wherever it is not decided
    within that distance of the boundary."""

    @settings(max_examples=60, deadline=None)
    @given(_small_networks())
    def test_max_throughput_objective(self, network):
        region, routing, _ = network
        optimizer = RateOptimizer(region, routing, MAX_THROUGHPUT)
        result = optimizer.solve()
        rates, _, success = paper.linprog_solve(optimizer, max_min=False)
        assert result.success and success
        assert result.flow_rates.sum() == pytest.approx(rates.sum(), rel=REFEREE_TOLERANCE)

    @settings(max_examples=60, deadline=None)
    @given(_small_networks())
    def test_max_min_rate(self, network):
        region, routing, _ = network
        optimizer = RateOptimizer(region, routing, MAX_THROUGHPUT)
        result = optimizer.solve_max_min()
        rates, _, success = paper.linprog_solve(optimizer, max_min=True)
        assert result.success and success
        assert result.flow_rates.min() == pytest.approx(rates.min(), rel=REFEREE_TOLERANCE)

    @settings(max_examples=60, deadline=None)
    @given(_small_networks(), st.data())
    def test_max_scaling(self, network, data):
        region = network[0]
        direction = _direction(data, region)
        assert region.max_scaling(direction) == pytest.approx(
            paper.linprog_max_scaling(region, direction), rel=REFEREE_TOLERANCE
        )

    @settings(max_examples=100, deadline=None)
    @given(
        _small_networks(),
        st.data(),
        st.sampled_from([0.0, 0.5, 0.999, 1 - 1e-8, 1 + 1e-8, 1 + 1e-6, 1.001, 2.0]),
        st.sampled_from([1e-9, 1.0, 1e3]),
    )
    def test_contains(self, network, data, factor, tolerance):
        """Decided by the referee's scaling factor theta* of
        ``max(rates - tolerance, 0)`` wherever |theta* - 1| exceeds
        ``REFEREE_TOLERANCE``; the referee's own feasibility LP agrees
        beyond 1e-6, outside HiGHS's 1e-7 primal feasibility tolerance."""
        region = network[0]
        direction = _direction(data, region)
        rates = direction * paper.linprog_max_scaling(region, direction) * factor
        target = np.maximum(rates - tolerance, 0.0)
        theta = paper.linprog_max_scaling(region, target) if target.any() else np.inf
        contained = region.contains(rates, tolerance)
        if abs(theta - 1.0) > REFEREE_TOLERANCE:
            assert contained == (theta >= 1.0)
        if abs(theta - 1.0) > 1e-6:
            assert contained == paper.linprog_contains(region, rates, tolerance)


# ------------------------------------------------- the interior-point iteration
ALPHAS = [0.5, 1.0, 2.0, 3.0, 4.0]


class TestDegenerateShapes:
    """The shapes of ``DEGENERATE_SHAPES``; each is held to the LP-only
    oracle at ``TOLERANCE``."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_two_kept_points_tied_on_every_loaded_link(self, alpha):
        """{A, B} and {A, C} are both maximal and neither dominates, but
        the flows cross A alone: the weights are not unique, and the
        Newton matrix loses rank along the tie as the gap closes."""
        region, routing = DEGENERATE_SHAPES["two kept points tied on every loaded link"]()
        assert non_dominated_rows(region.extreme_points).size == 2
        result = _assert_matches_oracle(region, routing, alpha)
        assert result.flow_rates == pytest.approx([1.5e6, 1.5e6], rel=1e-9)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_a_single_kept_point(self, alpha):
        region, routing = DEGENERATE_SHAPES["a single kept point"]()
        assert non_dominated_rows(region.extreme_points).size == 1
        result = _assert_matches_oracle(region, routing, alpha)
        assert result.flow_rates == pytest.approx([3e6, 1e6], rel=1e-9)
        assert result.alpha[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_a_link_no_flow_crosses(self, alpha):
        _assert_matches_oracle(*DEGENERATE_SHAPES["a link no flow crosses"](), alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_a_capacity_a_millionth_of_the_largest(self, alpha):
        """What ``min(channel_loss, 0.999999)`` leaves of a dead link: 5 b/s
        beside 5 Mb/s, five rate floors wide.  (The cutting-plane oracle
        cannot follow here - its tangents reach 1e18 - but two one-hop
        flows sharing the air have a closed form: the airtime split
        equalises c U'(c a), clipped where the 1 b/s floor binds.)"""
        c1, c2 = 5e6, 5.0
        region, routing = DEGENERATE_SHAPES["a capacity a millionth of the largest"]()
        result = RateOptimizer(region, routing, AlphaFairUtility(alpha=alpha)).solve()
        _assert_consistent(region, result)
        slow = max(1.0, c2 / (1.0 + (c1 / c2) ** ((1.0 - alpha) / alpha)))
        assert result.flow_rates == pytest.approx([c1 * (1.0 - slow / c2), slow], rel=1e-6)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_a_rate_floor_that_does_not_fit_is_a_failure(self, alpha):
        """Three flows through a 2 b/s link cannot each have the 1 b/s
        floor: no optimum exists, and the solve says so (the controller
        turns that into ``SolverError``)."""
        region, routing = DEGENERATE_SHAPES["a rate floor that does not fit"]()
        result = RateOptimizer(region, routing, AlphaFairUtility(alpha=alpha)).solve()
        assert not result.success
        assert "no optimum" in result.message and "primal residual" in result.message


class TestSolveProperties:
    """What an accurate, deterministic solve makes cheap to state."""

    @settings(max_examples=25, deadline=None)
    @given(_small_networks(), st.sampled_from(ALPHAS))
    def test_two_solves_of_one_instance_are_equal(self, network, alpha):
        region, routing, _ = network
        first, second = (
            RateOptimizer(region, routing, AlphaFairUtility(alpha=alpha)).solve() for _ in range(2)
        )
        assert first.success and first.message == second.message
        assert np.array_equal(first.flow_rates, second.flow_rates)
        assert np.array_equal(first.alpha, second.alpha)

    @settings(max_examples=25, deadline=None)
    @given(_small_networks(), st.sampled_from(ALPHAS), st.randoms(use_true_random=False))
    def test_permuting_the_flows_permutes_the_rates(self, network, alpha, random):
        region, routing, _ = network
        order = list(range(routing.matrix.shape[1]))
        random.shuffle(order)
        utility = AlphaFairUtility(alpha=alpha)
        straight = RateOptimizer(region, routing, utility).solve()
        reordered = routing_of(region, routing.matrix[:, order])
        permuted = RateOptimizer(region, reordered, utility).solve()
        assert straight.success and permuted.success
        assert permuted.flow_rates == pytest.approx(straight.flow_rates[order], rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(_small_networks(), st.sampled_from(ALPHAS), st.sampled_from([1e-3, 0.5, 8.0]))
    def test_scaling_every_capacity_scales_the_rates(self, network, alpha, factor):
        """In b/s or Mb/s the answer is the same; the rate floor is
        scaled along, or it would be a different program."""
        region, routing, _ = network
        scaled_region = FeasibilityRegion(
            links=list(region.links), extreme_points=region.extreme_points * factor
        )
        utility = AlphaFairUtility(alpha=alpha)
        straight = RateOptimizer(region, routing, utility).solve()
        scaled = RateOptimizer(scaled_region, routing, utility, rate_floor=factor).solve()
        assert straight.success and scaled.success
        assert scaled.flow_rates == pytest.approx(straight.flow_rates * factor, rel=1e-9)


def _bits(result):
    return [
        (value.dtype.str, value.tobytes()) if isinstance(value, np.ndarray) else repr(value)
        for value in dataclasses.astuple(result)
    ]


@pytest.mark.parametrize("alpha", [0.0, *ALPHAS])
def test_the_routing_matrix_layout_moves_no_bit(alpha):
    """The starved-flows shape arrives Fortran-ordered; the same values in C
    order give byte-equal results, ``link_rates`` included: the optimizer
    fixes the layout its BLAS products read."""
    region, routing = DEGENERATE_SHAPES["starved flows"]()
    assert not routing.matrix.flags.c_contiguous
    c_ordered = routing_of(region, np.ascontiguousarray(routing.matrix))
    utility = AlphaFairUtility(alpha=alpha)
    fortran, c = (RateOptimizer(region, r, utility) for r in (routing, c_ordered))
    assert _bits(fortran.solve()) == _bits(c.solve())
    assert _bits(fortran.solve_max_min()) == _bits(c.solve_max_min())
