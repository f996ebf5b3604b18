"""Tests for evaluation metrics and reporting helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.metrics import (
    cdf_fraction_below,
    feasibility_ratio,
    jain_fairness_index,
    rmse,
    stability_deviations,
)
from repro.analysis.reporting import ExperimentReport, format_cdf_summary, format_table


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_fairness_index([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_one(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_fairness_index([])
        with pytest.raises(ValueError):
            jain_fairness_index([-1.0, 1.0])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
    def test_bounds_property(self, values):
        index = jain_fairness_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


class TestErrorMetrics:
    def test_rmse(self):
        assert rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))

    def test_rmse_zero_for_identical(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_rmse_validation(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestCdfHelpers:
    def test_fraction_below(self):
        assert cdf_fraction_below([1, 2, 3, 4], 2.5) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_fraction_below([], 0.0)


class TestIsolationMetrics:
    def test_feasibility_ratio(self):
        assert feasibility_ratio(0.9e6, 1e6) == pytest.approx(0.9)
        assert feasibility_ratio(1.0, 0.0) == 1.0

    def test_stability_deviations(self):
        deviations = stability_deviations([1.0, 1.0, 1.0])
        assert deviations == [0.0, 0.0, 0.0]
        deviations = stability_deviations([0.5, 1.5])
        assert deviations == pytest.approx([0.5, 0.5])

    def test_stability_zero_mean(self):
        assert stability_deviations([0.0, 0.0]) == [0.0, 0.0]


class TestReporting:
    def test_format_table_contains_cells(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in text
        assert "2.500" in text
        assert "x" in text

    def test_format_cdf_summary(self):
        text = format_cdf_summary("metric", [1.0, 2.0, 3.0])
        assert "metric" in text and "mean=" in text

    def test_experiment_report(self):
        report = ExperimentReport("Fig. X", "demo")
        report.add("line one")
        report.add_comparison("quantity", "1.0", "1.1")
        rendered = report.render()
        assert "Fig. X" in rendered and "paper=1.0" in rendered and "line one" in rendered
        # emit() writes to the real stdout (bypassing pytest capture); it
        # must not raise.
        report.emit()
