"""Unit and property tests for propagation models."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.phy.propagation import (
    LogDistancePathLoss,
    dbm_to_mw,
    mw_to_dbm,
)


class TestPowerConversions:
    def test_zero_dbm_is_one_mw(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)

    def test_round_trip(self):
        assert mw_to_dbm(dbm_to_mw(-63.2)) == pytest.approx(-63.2)

    def test_zero_mw_is_minus_infinity(self):
        assert mw_to_dbm(0.0) == float("-inf")

    @given(st.floats(min_value=-150.0, max_value=50.0))
    def test_conversion_round_trip_property(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-9)

    @given(st.floats(min_value=-150.0, max_value=50.0), st.floats(min_value=-150.0, max_value=50.0))
    def test_dbm_ordering_preserved_in_mw(self, a, b):
        if a < b:
            assert dbm_to_mw(a) <= dbm_to_mw(b)


class TestLogDistance:
    def test_loss_follows_exponent(self):
        model = LogDistancePathLoss(exponent=3.0, shadowing_sigma_db=0.0)
        delta = model.path_loss_db(100.0) - model.path_loss_db(10.0)
        assert delta == pytest.approx(30.0, abs=1e-6)

    def test_shadowing_is_deterministic_per_link(self):
        model = LogDistancePathLoss(shadowing_sigma_db=8.0, seed=3)
        first = model.path_loss_db(50.0, link_key=(1, 2))
        second = model.path_loss_db(50.0, link_key=(1, 2))
        assert first == second

    def test_shadowing_is_symmetric(self):
        model = LogDistancePathLoss(shadowing_sigma_db=8.0, seed=3)
        assert model.path_loss_db(50.0, (1, 2)) == model.path_loss_db(50.0, (2, 1))

    def test_shadowing_differs_across_links(self):
        model = LogDistancePathLoss(shadowing_sigma_db=8.0, seed=3)
        losses = {model.path_loss_db(50.0, (1, other)) for other in range(2, 12)}
        assert len(losses) > 1

    def test_zero_sigma_removes_shadowing(self):
        model = LogDistancePathLoss(shadowing_sigma_db=0.0)
        assert model.path_loss_db(50.0, (1, 2)) == model.path_loss_db(50.0, (3, 4))

    @given(st.floats(min_value=1.0, max_value=2000.0), st.floats(min_value=1.0, max_value=2000.0))
    def test_monotone_in_distance(self, d1, d2):
        model = LogDistancePathLoss(shadowing_sigma_db=0.0)
        if d1 < d2:
            assert model.path_loss_db(d1) <= model.path_loss_db(d2)
        if math.isclose(d1, d2):
            assert model.path_loss_db(d1) == pytest.approx(model.path_loss_db(d2))
