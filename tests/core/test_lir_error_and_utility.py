"""Tests for the Section 4.4 error analysis and the alpha-fair utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.lir_error import (
    PairSample,
    expected_errors,
    pair_error,
    threshold_sweep,
)
from repro.core.utility import MAX_THROUGHPUT, PROPORTIONAL_FAIR, AlphaFairUtility


class TestPairSample:
    def test_lir(self):
        sample = PairSample(1.0, 1.0, 0.6, 0.6)
        assert sample.lir == pytest.approx(0.6)


class TestPairError:
    def test_interfering_pair_has_only_fn(self):
        sample = PairSample(1.0, 1.0, 0.8, 0.8)  # LIR 0.8 < 0.95
        fp, fn = pair_error(sample, threshold=0.95)
        assert fp == 0.0
        assert fn > 0.0

    def test_non_interfering_pair_has_only_fp(self):
        sample = PairSample(1.0, 1.0, 0.97, 0.97)  # LIR 0.97 >= 0.95
        fp, fn = pair_error(sample, threshold=0.95)
        assert fn == 0.0
        assert fp >= 0.0

    def test_perfect_time_sharing_has_no_error(self):
        sample = PairSample(1.0, 1.0, 0.5, 0.5)
        fp, fn = pair_error(sample, threshold=0.95)
        assert fp == 0.0 and fn == pytest.approx(0.0, abs=1e-9)

    def test_full_independence_classified_independent_no_error(self):
        sample = PairSample(1.0, 1.0, 1.0, 1.0)
        fp, fn = pair_error(sample, threshold=0.95)
        assert fp == pytest.approx(0.0, abs=1e-9)
        assert fn == 0.0


class TestExpectedErrors:
    def _samples_from_lir_distribution(self):
        # A distribution shaped like Figure 3: a cluster of strongly
        # interfering pairs and a cluster of nearly independent pairs.
        rng = np.random.default_rng(0)
        lirs = np.concatenate(
            [rng.uniform(0.45, 0.7, size=60), rng.uniform(0.96, 1.0, size=50), rng.uniform(0.8, 0.95, size=20)]
        )
        return [PairSample(1.0, 1.0, float(lir), float(lir)) for lir in lirs]

    def test_expected_errors_at_paper_threshold(self):
        samples = self._samples_from_lir_distribution()
        result = expected_errors(samples, threshold=0.95)
        # Paper reports ~2% FP and ~13% FN for its LIR distribution: ours
        # only needs to be in a sensible band.
        assert result.expected_false_positive < 0.10
        assert 0.0 < result.expected_false_negative < 0.40

    def test_threshold_sweep_monotone_fn(self):
        """Raising the threshold can only add pairs to the interfering class,
        so the expected FN error is non-decreasing in the threshold."""
        samples = self._samples_from_lir_distribution()
        sweep = threshold_sweep(samples, [0.7, 0.8, 0.9, 0.95, 0.99])
        fns = [entry.expected_false_negative for entry in sweep]
        assert all(b >= a - 1e-12 for a, b in zip(fns, fns[1:]))

    def test_threshold_sweep_monotone_fp(self):
        samples = self._samples_from_lir_distribution()
        sweep = threshold_sweep(samples, [0.7, 0.8, 0.9, 0.95, 0.99])
        fps = [entry.expected_false_positive for entry in sweep]
        assert all(b <= a + 1e-12 for a, b in zip(fps, fps[1:]))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            expected_errors([], 0.95)


class TestUtility:
    def test_max_throughput_is_alpha_zero(self):
        assert MAX_THROUGHPUT.alpha == 0.0

    def test_proportional_fair_is_log(self):
        assert PROPORTIONAL_FAIR.alpha == 1.0
        value = PROPORTIONAL_FAIR.value(np.array([np.e, np.e]))
        assert value == pytest.approx(2.0)

    def test_alpha_zero_is_sum(self):
        assert MAX_THROUGHPUT.value(np.array([1.0, 2.0, 3.0])) == pytest.approx(6.0)

    def test_gradient(self):
        utility = AlphaFairUtility(alpha=2.0)
        grad = utility.gradient(np.array([1.0, 2.0]))
        assert grad[0] == pytest.approx(1.0)
        assert grad[1] == pytest.approx(0.25)

    def test_rate_floor_keeps_log_finite(self):
        assert np.isfinite(PROPORTIONAL_FAIR.value(np.array([0.0, 1.0])))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            AlphaFairUtility(alpha=-1.0)

    def test_describe(self):
        assert "throughput" in AlphaFairUtility(alpha=0.0).describe()
        assert "proportional" in AlphaFairUtility(alpha=1.0).describe()

    @given(st.floats(min_value=0.0, max_value=4.0))
    def test_utility_monotone_in_rate(self, alpha):
        utility = AlphaFairUtility(alpha=alpha)
        low = utility.value(np.array([1.0]))
        high = utility.value(np.array([2.0]))
        assert high > low

    @given(st.floats(min_value=0.1, max_value=4.0))
    def test_fairness_preference_property(self, alpha):
        """For alpha > 0, an equal split beats an extreme split of the same total."""
        utility = AlphaFairUtility(alpha=alpha)
        equal = utility.value(np.array([1.0, 1.0]))
        skewed = utility.value(np.array([1.9, 0.1]))
        assert equal > skewed
