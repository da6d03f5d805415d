"""Tests for power-law fitting and summary statistics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fitting import fit_power_law
from repro.analysis.stats import success_rate, summarize, wilson_interval


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        xs = [10, 100, 1000, 10_000]
        ys = [3 * x ** 1.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(1.5, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [2, 4, 8])
        assert fit.predict(8) == pytest.approx(16.0, rel=1e-6)

    def test_non_positive_points_dropped(self):
        fit = fit_power_law([0, 1, 2, 4], [5, 2, 4, 8])
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([0, 0], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1])

    @settings(max_examples=20, deadline=None)
    @given(
        exponent=st.floats(-2.0, 3.0),
        coefficient=st.floats(0.1, 50.0),
    )
    def test_property_round_trip(self, exponent, coefficient):
        xs = [2.0, 8.0, 32.0, 128.0]
        ys = [coefficient * x ** exponent for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(exponent, abs=1e-6)


class TestSummarize:
    def test_basic(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == 3
        assert s.median == 3
        assert s.minimum == 1 and s.maximum == 5
        assert s.ci_low < 3 < s.ci_high

    def test_single_value(self):
        s = summarize([7])
        assert s.stdev == 0
        assert s.ci_low == s.ci_high == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_shrinks_with_samples(self):
        wide = summarize([0, 10] * 5)
        narrow = summarize([0, 10] * 50)
        assert (narrow.ci_high - narrow.ci_low) < (wide.ci_high - wide.ci_low)

    @given(st.data())
    @settings(max_examples=200)
    def test_value_order_never_changes_the_summary(self, data):
        # Sweep folds collect each group's rounds in arrival order, which
        # depends on worker timing; their tables are exact only because
        # this holds bit for bit.
        values = data.draw(
            st.lists(st.integers(-10**15, 10**15), min_size=1, max_size=60)
        )
        shuffled = data.draw(st.permutations(values))
        assert summarize(values) == summarize(shuffled)


class TestWilson:
    def test_full_success(self):
        lo, hi = wilson_interval(10, 10)
        assert lo > 0.6
        assert hi == pytest.approx(1.0)

    def test_zero_success(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi < 0.4

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_success_rate(self):
        rate, (lo, hi) = success_rate([True, True, False, True])
        assert rate == 0.75
        assert lo < 0.75 < hi

    def test_success_rate_empty(self):
        with pytest.raises(ValueError):
            success_rate([])
