"""Tests for extreme points, the feasibility region and two-link geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import paper
from repro.core.conflict_graph import ConflictGraph
from repro.core.extreme_points import (
    FeasibilityRegion,
    non_dominated_rows,
    primary_extreme_points,
    secondary_extreme_points,
)
from repro.core.feasibility import TwoLinkRegions
from repro.core.interference import PairwiseInterferenceMap


def _two_link_region(interfering: bool, c1=1.0, c2=2.0) -> FeasibilityRegion:
    links = [(0, 1), (2, 3)]
    capacities = {links[0]: c1, links[1]: c2}
    imap = PairwiseInterferenceMap(links)
    if interfering:
        imap.add_conflict(links[0], links[1])
    graph = ConflictGraph.from_interference_map(imap)
    return FeasibilityRegion.from_capacities_and_conflicts(capacities, graph)


class TestExtremePoints:
    def test_primary_points_are_diagonal(self):
        links = [(0, 1), (2, 3)]
        points = primary_extreme_points({links[0]: 3.0, links[1]: 5.0}, links)
        assert points.shape == (2, 2)
        assert points[0, 0] == 3.0 and points[0, 1] == 0.0
        assert points[1, 1] == 5.0 and points[1, 0] == 0.0

    def test_missing_capacity_raises(self):
        with pytest.raises(KeyError):
            primary_extreme_points({(0, 1): 1.0}, [(0, 1), (2, 3)])

    def test_secondary_points_interfering_pair(self):
        region = _two_link_region(interfering=True)
        # Maximal independent sets are the two singletons: the secondary
        # points coincide with the primary ones.
        assert region.num_extreme_points == 4

    def test_secondary_points_independent_pair(self):
        links = [(0, 1), (2, 3)]
        imap = PairwiseInterferenceMap(links)
        graph = ConflictGraph.from_interference_map(imap)
        secondary = secondary_extreme_points({links[0]: 1.0, links[1]: 2.0}, graph)
        # One maximal independent set containing both links.
        assert secondary.shape == (1, 2)
        assert list(secondary[0]) == [1.0, 2.0]

    def test_eq4_replaces_unit_entries_with_capacities(self):
        links = [(0, 1), (2, 3), (4, 5)]
        caps = {links[0]: 10.0, links[1]: 20.0, links[2]: 30.0}
        imap = PairwiseInterferenceMap(links)
        imap.add_conflict(links[0], links[1])
        graph = ConflictGraph.from_interference_map(imap)
        secondary = secondary_extreme_points(caps, graph)
        rows = {tuple(row) for row in secondary}
        assert (10.0, 0.0, 30.0) in rows
        assert (0.0, 20.0, 30.0) in rows


class TestFeasibilityRegion:
    def test_time_sharing_membership(self):
        region = _two_link_region(interfering=True, c1=1.0, c2=1.0)
        assert region.contains([0.5, 0.49])
        assert region.contains([1.0, 0.0])
        assert not region.contains([0.7, 0.7])

    def test_independent_membership(self):
        region = _two_link_region(interfering=False, c1=1.0, c2=1.0)
        assert region.contains([0.99, 0.99])
        assert not region.contains([1.2, 0.1])

    def test_negative_rates_not_feasible(self):
        region = _two_link_region(interfering=True)
        assert not region.contains([-0.5, 0.1])

    def test_dimension_mismatch_raises(self):
        region = _two_link_region(interfering=True)
        with pytest.raises(ValueError):
            region.contains([0.1])

    def test_max_scaling_interfering(self):
        region = _two_link_region(interfering=True, c1=1.0, c2=1.0)
        theta = region.max_scaling([1.0, 1.0])
        assert theta == pytest.approx(0.5, rel=1e-6)

    def test_max_scaling_independent(self):
        region = _two_link_region(interfering=False, c1=1.0, c2=2.0)
        theta = region.max_scaling([1.0, 1.0])
        assert theta == pytest.approx(1.0, rel=1e-6)

    def test_max_scaling_zero_direction(self):
        region = _two_link_region(interfering=True)
        assert region.max_scaling([0.0, 0.0]) == 0.0

    @pytest.mark.parametrize(
        "points",
        [[[1e6, 0.0], [0.0, 0.0], [5e5, 0.0]], [[0.0, 0.0]]],
        ids=["a-link-no-point-serves", "zero-everywhere"],
    )
    def test_max_scaling_is_positive_zero_where_the_direction_cannot_move(self, points):
        region = FeasibilityRegion(links=[(0, 1), (2, 3)], extreme_points=np.array(points))
        theta = region.max_scaling([0.0, 1.0])
        assert theta == 0.0 and math.copysign(1.0, theta) == 1.0
        assert region.contains([0.0, 0.0]) and not region.contains([0.0, 1.0])
        # The link no point serves stays out of the way of the other one.
        assert region.max_scaling([1.0, 0.0]) == pytest.approx(points[0][0], rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused_by_the_region(self, bad):
        region = _two_link_region(interfering=True)
        with pytest.raises(ValueError, match="direction must be finite"):
            region.max_scaling([bad, 1.0])
        with pytest.raises(ValueError, match="rates must be finite"):
            region.contains([bad, 0.1])

    def test_boundary_point_on_scaled_direction_is_feasible(self):
        region = _two_link_region(interfering=True, c1=2.0, c2=3.0)
        direction = np.array([1.0, 1.0])
        theta = region.max_scaling(direction)
        assert region.contains(direction * theta * 0.999)
        assert not region.contains(direction * theta * 1.05)

    def test_validation_of_extreme_points(self):
        with pytest.raises(ValueError):
            FeasibilityRegion(links=[(0, 1)], extreme_points=np.array([[-1.0]]))
        with pytest.raises(ValueError):
            FeasibilityRegion(links=[(0, 1)], extreme_points=np.zeros((0, 1)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_convexity_property(self, c1, c2, w1, w2):
        """Any convex combination of extreme points is feasible."""
        region = _two_link_region(interfering=True, c1=c1, c2=c2)
        points = region.extreme_points
        weights = np.zeros(region.num_extreme_points)
        weights[0] = w1
        weights[1] = w2
        if weights.sum() == 0:
            weights[0] = 1.0
        weights = weights / weights.sum()
        combo = weights @ points
        assert region.contains(combo * 0.999)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.2),
    )
    def test_scaling_consistency_property(self, c1, c2, fraction):
        """Points strictly inside the max-scaling radius are feasible."""
        region = _two_link_region(interfering=True, c1=c1, c2=c2)
        direction = np.array([1.0, 1.0])
        theta = region.max_scaling(direction)
        point = direction * theta * fraction
        if fraction <= 0.99:
            assert region.contains(point)
        if fraction >= 1.05:
            assert not region.contains(point)


@st.composite
def _point_matrices(draw):
    """Small non-negative matrices on a coarse grid, so ties, duplicate
    rows and dominated rows all occur often."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, 3), min_size=cols, max_size=cols)
    return np.array(draw(st.lists(cells, min_size=rows, max_size=rows)), dtype=float)


def _dominates(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(a >= b))


class TestNonDominatedRows:
    """The presolve filter `RateOptimizer` applies to the extreme points."""

    def test_primary_points_fall_to_the_independent_sets(self):
        region = _two_link_region(interfering=False, c1=1.0, c2=2.0)
        # Rows: (1, 0), (0, 2), (1, 2) - only the last is not dominated.
        assert list(non_dominated_rows(region.extreme_points)) == [2]

    def test_zero_rows_and_a_single_row(self):
        assert list(non_dominated_rows(np.zeros((3, 2)))) == [0]
        assert list(non_dominated_rows(np.array([[0.0, 5.0]]))) == [0]

    @settings(max_examples=200, deadline=None)
    @given(_point_matrices())
    def test_kept_rows_cover_the_dropped_and_not_each_other(self, points):
        kept = non_dominated_rows(points)
        assert list(kept) == sorted(set(kept)) and len(kept) >= 1
        for j in set(range(len(points))) - set(kept):
            assert any(_dominates(points[i], points[j]) for i in kept)
        for i in kept:
            assert not any(_dominates(points[j], points[i]) for j in kept if j != i)

    @settings(max_examples=200, deadline=None)
    @given(_point_matrices())
    def test_idempotent_and_duplicates_keep_their_first_occurrence(self, points):
        kept = non_dominated_rows(points)
        assert list(non_dominated_rows(points[kept])) == list(range(len(kept)))
        # A second copy of every row changes nothing: each duplicate
        # pair keeps exactly its first member.
        assert list(non_dominated_rows(np.vstack([points, points]))) == list(kept)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_model_regions_keep_exactly_the_independent_sets(self, num_links, data):
        links = [(2 * i, 2 * i + 1) for i in range(num_links)]
        imap = PairwiseInterferenceMap(links)
        for i, a in enumerate(links):
            for b in links[i + 1 :]:
                if data.draw(st.booleans()):
                    imap.add_conflict(a, b)
        capacities = {link: data.draw(st.floats(0.1, 10.0)) for link in links}
        graph = ConflictGraph.from_interference_map(imap)
        region = FeasibilityRegion.from_capacities_and_conflicts(capacities, graph)
        kept = region.extreme_points[non_dominated_rows(region.extreme_points)]
        # Compared as sets of rows: an isolated clique's primary point
        # *is* its independent-set point, and the earlier copy stays.
        secondary = secondary_extreme_points(capacities, graph, links)
        assert sorted(map(tuple, kept)) == sorted(map(tuple, secondary))
        # Section 3.2 by subset enumeration: the same points in the same order.
        reference = paper.extreme_points(capacities, links, graph.adjacency)
        assert region.extreme_points.tobytes() == reference.tobytes()


class TestTwoLinkRegions:
    def test_time_sharing_area(self):
        regions = TwoLinkRegions(c11=2.0, c22=4.0)
        assert regions.time_sharing_area == pytest.approx(4.0)
        assert regions.independent_area == pytest.approx(8.0)

    def test_membership_tests(self):
        regions = TwoLinkRegions(c11=1.0, c22=1.0, c31=0.8, c32=0.8)
        assert regions.in_time_sharing(0.5, 0.5)
        assert not regions.in_time_sharing(0.8, 0.8)
        assert regions.in_independent(0.8, 0.8)
        assert regions.in_three_point(0.75, 0.75)
        assert not regions.in_three_point(0.95, 0.95)

    def test_three_point_requires_secondary(self):
        regions = TwoLinkRegions(c11=1.0, c22=1.0)
        with pytest.raises(ValueError):
            regions.in_three_point(0.1, 0.1)

    def test_three_point_degenerates_to_time_sharing(self):
        regions = TwoLinkRegions(c11=1.0, c22=1.0, c31=0.3, c32=0.3)
        assert regions.three_point_area == pytest.approx(regions.time_sharing_area)
        assert regions.capture_gain_area == 0.0

    def test_capture_expands_region(self):
        regions = TwoLinkRegions(c11=1.0, c22=1.0, c31=0.9, c32=0.9)
        assert regions.three_point_area > regions.time_sharing_area
        assert regions.false_negative_error() > 0.3

    def test_full_capture_errors(self):
        regions = TwoLinkRegions(c11=1.0, c22=1.0, c31=1.0, c32=1.0)
        # Three-point region equals the independent rectangle minus nothing:
        # the FN error of choosing time sharing is 1/2 over 1 -> ~0.5 area
        # missing relative to the hull; FP error of independent region is 0.
        assert regions.false_positive_error() == pytest.approx(0.0, abs=1e-9)
        assert regions.false_negative_error() > 0.0

    def test_lir_property(self):
        regions = TwoLinkRegions(c11=1.0, c22=1.0, c31=0.5, c32=0.5)
        assert regions.lir == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            TwoLinkRegions(c11=0.0, c22=1.0)
        with pytest.raises(ValueError):
            TwoLinkRegions(c11=1.0, c22=1.0, c31=0.5, c32=None)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_area_and_error_invariants(self, c11, c22, f1, f2):
        regions = TwoLinkRegions(c11=c11, c22=c22, c31=c11 * f1, c32=c22 * f2)
        assert regions.time_sharing_area <= regions.three_point_area + 1e-9
        assert regions.three_point_area <= regions.independent_area + 1e-9
        assert 0.0 <= regions.false_negative_error() <= 1.0
        assert regions.false_positive_error() >= 0.0
