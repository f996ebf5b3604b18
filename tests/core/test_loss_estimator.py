"""Tests for the channel loss rate estimator (Section 5.3)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _parent_oracles as oracle
from repro.core.loss_estimator import (
    ChannelLossEstimate,
    _knee_of_log_fit,
    estimate_channel_loss_rate,
    estimate_channel_loss_rates,
    sliding_min_loss_curve,
)


def _uniform_series(rng, n, p):
    return (rng.random(n) < p).astype(int)


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
        expected_sizes, expected_curve = oracle.sliding_min_loss_curve(bits, min_window)
        assert sizes.dtype == expected_sizes.dtype and curve.dtype == expected_curve.dtype
        assert np.array_equal(sizes, expected_sizes)
        assert np.array_equal(curve, expected_curve)

    def test_a_stack_of_columns_gives_each_series_its_own_curve(self):
        rng = np.random.default_rng(8)
        stack = (rng.random((90, 7)) < rng.random(7)).astype(int)
        sizes, curves = sliding_min_loss_curve(stack)
        assert curves.shape == (sizes.size, 7)
        for column in range(7):
            alone_sizes, alone = sliding_min_loss_curve(stack[:, column])
            assert np.array_equal(sizes, alone_sizes)
            assert np.array_equal(curves[:, column], alone)
        with pytest.raises(ValueError):
            sliding_min_loss_curve(np.zeros((4, 3, 2)))


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


# --------------------------------------------------------------------------
# The batch against the per-series estimator it replaced (the oracle runs
# np.polyfit + two np.gradient on every Case-2 series): equality, not
# tolerance, on channel loss, case and selected window.
@st.composite
def _loss_series(draw, min_size=1, max_size=250):
    """i.i.d., bursty, all-zero and all-one series of every length."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["iid", "bursty", "zeros", "ones"]))
    if kind == "zeros":
        return np.zeros(size, dtype=int)
    if kind == "ones":
        return np.ones(size, dtype=int)
    series = (rng.random(size) < draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6]))).astype(int)
    if kind == "bursty":
        start = int(rng.integers(0, size))
        stop = int(rng.integers(start, size + 1))
        series[start:stop] |= rng.random(stop - start) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    return series


def _assert_equals_oracle(series, row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the oracle must not hit polyfit's rank warning
        measured, channel, case, window, coefficients = oracle.estimate_channel_loss_rate(series)
    assert row == (channel, case, window)
    assert [type(value) for value in row] == [float, int, int]
    scalar = estimate_channel_loss_rate(series)
    assert (scalar.channel_loss_rate, scalar.case, scalar.selected_window) == row
    assert scalar.measured_loss_rate == measured
    assert scalar.log_fit_coefficients == coefficients
    return case


class TestBatchEqualsThePerSeriesEstimator:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_loss_series(), min_size=1, max_size=6))
    def test_mixed_lengths_in_one_batch(self, batch):
        for series, row in zip(batch, estimate_channel_loss_rates(batch)):
            _assert_equals_oracle(series, row)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=11, max_value=200),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=2, max_size=12),
    )
    def test_equal_lengths_stack_into_one_pass(self, size, seeds):
        """The controller's shape: every direction has the same S."""
        batch = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            series = (rng.random(size) < rng.choice([0.0, 0.05, 0.3])).astype(int)
            burst = series[int(rng.integers(0, size)) :][: size // 3]  # a view: written through
            burst |= rng.random(burst.size) < 0.8
            batch.append(series)
        for series, row in zip(batch, estimate_channel_loss_rates(batch)):
            _assert_equals_oracle(series, row)

    def test_edges(self):
        assert estimate_channel_loss_rates([]) == []
        with pytest.raises(ValueError):
            estimate_channel_loss_rates([np.array([], dtype=int)])
        short = [np.array([1]), np.array([0, 1, 0]), np.zeros(9, dtype=int), np.ones(10, dtype=int)]
        for series, row in zip(short, estimate_channel_loss_rates(short)):
            _assert_equals_oracle(series, row)
        # Anything truthy is a lost probe; lists and floats are series too.
        assert estimate_channel_loss_rates([[0, 1.0, 0, True] * 10]) == estimate_channel_loss_rates(
            [np.array([0, 1, 0, 1] * 10)]
        )


class TestKneeDependsOnTheLengthsOnly:
    """Normalized, ``a ln(w) + b`` is ``(ln w - ln Wmin) / (ln S - ln
    Wmin)``: the fit's coefficients cancel, so W* is a function of (Wmin,
    S) and the estimator looks it up instead of refitting."""

    @pytest.mark.parametrize("total, knee", [(40, 15), (80, 24), (200, 45)])
    def test_pinned_windows(self, total, knee):
        index, _ = _knee_of_log_fit(10, total)
        assert 10 + index == knee
        # A single long burst is Case 2 at every one of these lengths.
        series = np.zeros(total, dtype=int)
        series[total // 2 : total // 2 + total // 4] = 1
        estimate = estimate_channel_loss_rate(series)
        assert (estimate.case, estimate.selected_window) == (2, knee)

    def test_the_fitted_knee_is_the_cached_one_for_every_length(self):
        rng = np.random.default_rng(2009)
        fits = 0
        for total in range(11, 261):
            sizes = np.arange(10, total + 1)
            index, weights = _knee_of_log_fit(10, total)
            for _ in range(12):
                series = (rng.random(total) < rng.choice([0.02, 0.1, 0.3])).astype(int)
                start = int(rng.integers(0, total - 1))
                series[start : start + int(rng.integers(2, total))] = 1
                _, curve = oracle.sliding_min_loss_curve(series)
                window, (a, _), flat = oracle.knee_of_log_fit(sizes, curve)
                # The closed-form rise of the fit is polyfit's, to rounding.
                assert weights @ curve == pytest.approx(
                    a * (np.log(total) - np.log(10)), rel=1e-9, abs=1e-15
                )
                if not flat:
                    assert window == 10 + index, (total, series.tolist())
                    fits += 1
        assert fits > 2900
