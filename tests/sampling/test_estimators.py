"""Tests for the bootstrap ratio estimator and its intervals."""

import numpy as np
import pytest

from repro.sampling import Estimate, ratio_estimates
from repro.sampling.estimators import _small_sample_factor


class TestEstimate:
    def test_half_width(self):
        assert Estimate(0.5, 0.4, 0.6).half_width == pytest.approx(0.1)

    def test_relative_half_width(self):
        assert Estimate(0.5, 0.4, 0.6).relative_half_width == pytest.approx(0.2)
        assert Estimate(0.5, 0.5, 0.5).relative_half_width == 0.0
        # A zero estimate with a degenerate interval is "met for free".
        assert Estimate(0.0, 0.0, 0.0).relative_half_width == 0.0

    def test_contains(self):
        estimate = Estimate(0.5, 0.4, 0.6)
        assert estimate.contains(0.45)
        assert not estimate.contains(0.7)
        assert estimate.contains(0.61, slack=0.02)

    def test_str_renders_plus_minus(self):
        assert str(Estimate(0.1234, 0.1, 0.15)) == "0.1234 ± 0.0250"


class TestRatioEstimates:
    def test_point_estimate_is_the_weighted_ratio(self):
        numerators = np.array([10.0, 30.0])
        denominators = np.array([100.0, 100.0])
        weights = np.array([1.0, 3.0])
        [estimate] = ratio_estimates(
            numerators, denominators, expansion=weights, bootstrap=0
        )
        # (1*10 + 3*30) / (1*100 + 3*100) = 100/400
        assert estimate.value == pytest.approx(0.25)

    def test_all_empty_units_yield_nan(self):
        # An unobserved ratio is unknown, not a perfect 0.0.
        estimates = ratio_estimates(np.zeros((3, 2)), np.zeros(3))
        assert len(estimates) == 2
        for estimate in estimates:
            assert np.isnan(estimate.value)
            assert np.isnan(estimate.ci_low) and np.isnan(estimate.ci_high)

    def test_zero_reference_units_carry_no_weight(self):
        # A zero-denominator unit must not perturb the ratio.
        numerators = np.array([10.0, 0.0])
        denominators = np.array([100.0, 0.0])
        [estimate] = ratio_estimates(numerators, denominators, bootstrap=0)
        assert estimate.value == pytest.approx(0.1)

    def test_one_metric_column_per_capacity(self):
        numerators = np.array([[5.0, 1.0], [15.0, 3.0]])
        denominators = np.array([100.0, 100.0])
        low, high = ratio_estimates(numerators, denominators, bootstrap=0)
        assert low.value == pytest.approx(0.1)
        assert high.value == pytest.approx(0.02)

    def test_bootstrap_is_seeded(self):
        rng = np.random.default_rng(0)
        numerators = rng.integers(0, 50, size=12).astype(float)
        denominators = np.full(12, 100.0)
        first = ratio_estimates(numerators, denominators, seed=9)
        again = ratio_estimates(numerators, denominators, seed=9)
        other = ratio_estimates(numerators, denominators, seed=10)
        assert first == again
        assert (first[0].ci_low, first[0].ci_high) != (
            other[0].ci_low,
            other[0].ci_high,
        )

    def test_interval_widens_with_unit_variance(self):
        denominators = np.full(8, 100.0)
        tight = ratio_estimates(np.full(8, 20.0), denominators, seed=1)[0]
        rng = np.random.default_rng(2)
        noisy = ratio_estimates(
            rng.integers(0, 40, size=8).astype(float), denominators, seed=1
        )[0]
        assert tight.half_width < noisy.half_width

    def test_bias_up_widens_the_lower_edge(self):
        numerators = np.array([20.0, 22.0, 18.0, 21.0])
        denominators = np.full(4, 100.0)
        plain = ratio_estimates(numerators, denominators, seed=4)[0]
        biased = ratio_estimates(numerators, denominators, bias_up=40.0, seed=4)[0]
        # 40 possible overcounts over 400 weighted references = 0.1 ratio.
        assert biased.ci_low == pytest.approx(max(0.0, plain.ci_low - 0.1))
        assert biased.ci_high == plain.ci_high

    def test_clip_bounds_the_interval(self):
        numerators = np.array([99.0, 98.0, 50.0, 99.0])
        denominators = np.full(4, 100.0)
        [estimate] = ratio_estimates(
            numerators, denominators, bias_up=1000.0, clip=(0.0, 1.0), seed=0
        )
        assert estimate.ci_high <= 1.0
        assert estimate.ci_low >= 0.0

    def test_interval_always_contains_the_point_estimate(self):
        rng = np.random.default_rng(3)
        numerators = rng.integers(0, 30, size=(6, 4)).astype(float)
        denominators = np.full(6, 50.0)
        for estimate in ratio_estimates(numerators, denominators, seed=3):
            assert estimate.ci_low <= estimate.value <= estimate.ci_high

    def test_single_unit_strata_pool_the_bootstrap(self):
        # Four units with visible variance: the bootstrap resamples all
        # units together, so it must report a nonzero interval (never the
        # identical sample every replicate).
        numerators = np.array([10.0, 30.0, 5.0, 45.0])
        denominators = np.full(4, 100.0)
        [estimate] = ratio_estimates(numerators, denominators, seed=0)
        assert estimate.half_width > 0.0

    def test_small_sample_factor_shrinks_toward_one(self):
        factors = [_small_sample_factor(u) for u in (2, 5, 10, 21, 100)]
        assert factors == sorted(factors, reverse=True)
        assert factors[-1] == 1.0
        assert factors[0] > 3.0  # t(df=1)/z is enormous

    def test_zero_bootstrap_interval_is_bias_bounds_only(self):
        numerators = np.array([10.0, 30.0])
        denominators = np.full(2, 100.0)
        [estimate] = ratio_estimates(
            numerators, denominators, bootstrap=0, bias_up=20.0
        )
        assert estimate.value == pytest.approx(0.2)
        assert estimate.ci_low == pytest.approx(0.1)
        assert estimate.ci_high == pytest.approx(0.2)
