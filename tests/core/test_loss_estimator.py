"""Tests for the channel loss rate estimator (Section 5.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.loss_estimator import (
    ChannelLossEstimate,
    estimate_channel_loss_rate,
    sliding_min_loss_curve,
)


def _uniform_series(rng, n, p):
    return (rng.random(n) < p).astype(int)


def _per_window_loop_curve(series, min_window):
    """The definition, one window size at a time: the bit-identity oracle
    for the gathered ``sliding_min_loss_curve``."""
    series = np.asarray(series, dtype=float)
    min_window = min(min_window, series.size)
    cumulative = np.concatenate(([0.0], np.cumsum(series)))
    sizes = np.arange(min_window, series.size + 1)
    minima = np.empty(sizes.size, dtype=float)
    for index, window in enumerate(sizes):
        window_sums = cumulative[window:] - cumulative[:-window]
        minima[index] = window_sums.min() / window
    return sizes, minima


class TestSlidingMinCurve:
    def test_all_received(self):
        sizes, curve = sliding_min_loss_curve(np.zeros(100, dtype=int))
        assert np.all(curve == 0.0)
        assert sizes[0] == 10 and sizes[-1] == 100

    def test_all_lost(self):
        sizes, curve = sliding_min_loss_curve(np.ones(100, dtype=int))
        assert np.all(curve == 1.0)

    def test_curve_rises_toward_measured_rate(self):
        """The min-loss curve starts low (collision-free stretches exist)
        and ends exactly at the overall measured loss rate."""
        rng = np.random.default_rng(1)
        series = _uniform_series(rng, 400, 0.1)
        series[100:150] = 1
        _, curve = sliding_min_loss_curve(series)
        assert curve[0] <= curve[-1]
        assert curve[-1] == pytest.approx(series.mean())

    def test_final_value_is_overall_loss_rate(self):
        rng = np.random.default_rng(2)
        series = _uniform_series(rng, 300, 0.2)
        _, curve = sliding_min_loss_curve(series)
        assert curve[-1] == pytest.approx(series.mean())

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            sliding_min_loss_curve(np.array([]))

    def test_window_larger_than_series_is_clamped(self):
        sizes, curve = sliding_min_loss_curve(np.zeros(5, dtype=int), min_window=10)
        assert sizes[0] == 5

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=15, max_size=200))
    def test_curve_bounded_property(self, bits):
        series = np.array(bits)
        sizes, curve = sliding_min_loss_curve(series)
        assert np.all((curve >= 0.0) & (curve <= 1.0))
        assert curve[-1] == pytest.approx(series.mean())
        # The curve always contains the full-window point, so its minimum
        # can never exceed the measured loss rate.
        assert curve.min() <= series.mean() + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=320),
        st.integers(min_value=1, max_value=330),
    )
    def test_curve_is_bit_identical_to_the_per_window_loop(self, bits, min_window):
        sizes, curve = sliding_min_loss_curve(np.array(bits), min_window)
        expected_sizes, expected_curve = _per_window_loop_curve(bits, min_window)
        assert sizes.dtype == expected_sizes.dtype and curve.dtype == expected_curve.dtype
        assert np.array_equal(sizes, expected_sizes)
        assert np.array_equal(curve, expected_curve)


class TestEstimator:
    def test_clean_series(self):
        estimate = estimate_channel_loss_rate(np.zeros(500, dtype=int))
        assert estimate.channel_loss_rate == 0.0
        assert estimate.case == 1

    def test_uniform_losses_estimated_close_to_truth(self):
        rng = np.random.default_rng(3)
        errors = []
        for p in (0.05, 0.1, 0.2, 0.4):
            series = _uniform_series(rng, 1280, p)
            estimate = estimate_channel_loss_rate(series)
            errors.append(abs(estimate.channel_loss_rate - p))
        assert np.mean(errors) < 0.06

    def test_collision_burst_filtered_out(self):
        """A bursty interference episode must not inflate the channel estimate."""
        rng = np.random.default_rng(4)
        p_channel = 0.05
        series = _uniform_series(rng, 1280, p_channel)
        series[200:500] = (rng.random(300) < 0.7).astype(int)
        estimate = estimate_channel_loss_rate(series)
        assert estimate.measured_loss_rate > 0.15
        assert estimate.channel_loss_rate < 0.5 * estimate.measured_loss_rate
        assert estimate.channel_loss_rate <= p_channel + 0.05

    def test_collision_only_scenario(self):
        """Pure collision losses on a clean channel: estimate near zero."""
        rng = np.random.default_rng(5)
        series = np.zeros(1280, dtype=int)
        series[600:900] = (rng.random(300) < 0.5).astype(int)
        estimate = estimate_channel_loss_rate(series)
        assert estimate.channel_loss_rate < 0.03

    def test_estimate_never_exceeds_measured(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            series = _uniform_series(rng, 600, rng.uniform(0.0, 0.6))
            estimate = estimate_channel_loss_rate(series)
            assert estimate.channel_loss_rate <= estimate.measured_loss_rate + 1e-12

    def test_returns_curve_and_window(self):
        rng = np.random.default_rng(7)
        series = _uniform_series(rng, 400, 0.1)
        estimate = estimate_channel_loss_rate(series)
        assert isinstance(estimate, ChannelLossEstimate)
        assert estimate.window_sizes.shape == estimate.min_loss_curve.shape
        assert estimate.window_sizes[0] <= estimate.selected_window <= estimate.window_sizes[-1]

    def test_short_series_supported(self):
        """A series no longer than the minimum window has a one-point
        curve: nothing to fit a line through (np.polyfit on it warns and
        returns arbitrary coefficients), so the only window is the knee."""
        estimate = estimate_channel_loss_rate(np.array([0, 1, 0, 0, 1, 0, 0, 0]))
        assert estimate.case == 2
        assert estimate.selected_window == 8
        assert estimate.channel_loss_rate == 0.25
        assert estimate.log_fit_coefficients == (0.0, 0.25)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.0, max_value=0.8))
    def test_estimate_bounded_property(self, seed, p):
        rng = np.random.default_rng(seed)
        series = _uniform_series(rng, 320, p)
        estimate = estimate_channel_loss_rate(series)
        assert 0.0 <= estimate.channel_loss_rate <= estimate.measured_loss_rate + 1e-12
        assert estimate.case in (1, 2)
