import math
import re
import warnings

import numpy as np
import pytest

from goldseason import (
    ADDITIVE,
    MULTIPLICATIVE,
    DataError,
    MonthStamp,
    NumericError,
    SeasonalIndices,
    accuracy_metrics,
    centered_ma,
    decompose,
    fit_trend,
    seasonal_deviation_percent,
    seasonal_indices,
    to_returns,
)

from conftest import make_series, make_stamps


def synthetic(model, intercept, slope, indices, n=240, start="1990-01"):
    """Noise-free trend/season composition with normalized indices."""
    idx = np.asarray(indices, dtype=float)
    idx = idx / idx.mean() if model == MULTIPLICATIVE else idx - idx.mean()
    stamps = make_stamps(start, n)
    t = np.arange(1, n + 1)
    months = np.array([s.month for s in stamps])
    trend = intercept + slope * t
    values = trend * idx[months - 1] if model == MULTIPLICATIVE else trend + idx[months - 1]
    return values, stamps[0], idx


class TestCenteredMA:
    def test_linear_series_passes_through(self):
        y = np.arange(1, 26, dtype=float)
        ma = centered_ma(y)
        assert np.isnan(ma[:6]).all() and np.isnan(ma[-6:]).all()
        np.testing.assert_allclose(ma[6:19], y[6:19], atol=1e-12)

    def test_constant_series(self):
        ma = centered_ma([5.0] * 30)
        defined = ma[~np.isnan(ma)]
        assert defined.size == 18
        assert (defined == 5.0).all()

    def test_matches_direct_summation(self, rng):
        y = rng.uniform(10, 100, 48)
        ma = centered_ma(y)
        for i in range(6, 42):
            window = 0.5 * y[i - 6] + y[i - 5:i + 6].sum() + 0.5 * y[i + 6]
            assert ma[i] == pytest.approx(window / 12, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(DataError, match="too short"):
            centered_ma([1.0] * 12)

    def test_non_finite_value_is_data_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^moving-average input holds a non-finite value$"):
                centered_ma([math.inf, -math.inf] + [1.0] * 11)


class TestSeasonalIndices:
    def test_recovers_multiplicative_indices_flat_trend(self, rng):
        truth = 1 + rng.uniform(-0.05, 0.05, 12)
        values, start, idx = synthetic(MULTIPLICATIVE, 250.0, 0.0, truth)
        est = seasonal_indices(values, start, MULTIPLICATIVE)
        np.testing.assert_allclose(est.values, idx, atol=1e-9)

    def test_recovers_additive_indices_with_trend(self, rng):
        truth = rng.uniform(-10, 10, 12)
        values, start, idx = synthetic(ADDITIVE, 500.0, 1.7, truth)
        est = seasonal_indices(values, start, ADDITIVE)
        np.testing.assert_allclose(est.values, idx, atol=1e-9)

    def test_multiplicative_trend_interaction_bias_is_small(self, rng):
        # ratio-to-MA estimation interacts with a sloped trend, so exact
        # recovery is not expected here, only sub-0.005 accuracy
        truth = 1 + rng.uniform(-0.05, 0.05, 12)
        values, start, idx = synthetic(MULTIPLICATIVE, 117.2, 2.09, truth)
        est = seasonal_indices(values, start, MULTIPLICATIVE)
        np.testing.assert_allclose(est.values, idx, atol=5e-3)

    def test_pure_trend_gives_neutral_indices(self):
        values, start, _ = synthetic(MULTIPLICATIVE, 100.0, 2.0, np.ones(12))
        est = seasonal_indices(values, start, MULTIPLICATIVE)
        np.testing.assert_allclose(est.values, 1.0, atol=1e-9)
        values, start, _ = synthetic(ADDITIVE, 100.0, 2.0, np.zeros(12))
        est = seasonal_indices(values, start, ADDITIVE)
        np.testing.assert_allclose(est.values, 0.0, atol=1e-9)

    def test_mean_aggregator(self, rng):
        truth = 1 + rng.uniform(-0.03, 0.03, 12)
        values, start, idx = synthetic(MULTIPLICATIVE, 300.0, 0.0, truth)
        est = seasonal_indices(values, start, MULTIPLICATIVE, aggregator="mean")
        np.testing.assert_allclose(est.values, idx, atol=1e-9)

    def test_normalization_exact(self, rng):
        values = rng.uniform(50, 150, 120)
        start = MonthStamp.parse("2000-01")
        mult = seasonal_indices(values, start, MULTIPLICATIVE)
        assert abs(np.mean(mult.values) - 1.0) <= 1e-12
        add = seasonal_indices(values, start, ADDITIVE)
        assert abs(np.sum(add.values)) <= 1e-12 * max(1.0, np.abs(add.values).max())

    def test_multiplicative_rejects_nonpositive_named(self):
        values = np.full(36, 10.0)
        values[5] = -1.0
        start = MonthStamp.parse("2000-01")
        with pytest.raises(DataError, match="2000-06"):
            seasonal_indices(values, start, MULTIPLICATIVE)

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 24"):
            seasonal_indices([1.0] * 23, MonthStamp(2000, 1), MULTIPLICATIVE)

    def test_invalid_model_and_aggregator(self):
        start = MonthStamp.parse("2000-01")
        with pytest.raises(DataError, match="model"):
            seasonal_indices([1.0] * 24, start, "mult")
        with pytest.raises(DataError, match="aggregator"):
            seasonal_indices([1.0] * 24, start, MULTIPLICATIVE, aggregator="mode")

    @pytest.mark.parametrize("values, start, model, aggregator", [
        ([1.0] * 23, MonthStamp(2000, 1), MULTIPLICATIVE, "median"),
        ([1.0] * 24, None, MULTIPLICATIVE, "median"),
        ([1.0] * 11 + [0.0] + [1.0] * 24, MonthStamp(2000, 3), MULTIPLICATIVE, "median"),
        ([1.0] * 30 + [-2.0] + [1.0] * 5, MonthStamp(2000, 1), MULTIPLICATIVE, "mean"),
        ([1.0] * 24, MonthStamp(2000, 1), "mult", "median"),
        ([1.0] * 24, MonthStamp(2000, 1), ADDITIVE, "mode"),
    ])
    def test_faults_are_those_of_decompose(self, values, start, model, aggregator):
        raised = []
        for estimate in (lambda: seasonal_indices(values, start, model, aggregator),
                         lambda: decompose(values, start, model, aggregator)):
            with pytest.raises(DataError) as info:
                estimate()
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    def test_a_later_stage_fault_is_that_of_decompose(self):
        values = [1 + (i % 12) / 10 for i in range(48)]
        values[20] = math.inf  # the centered MA is inf around it, so a raw ratio and its month's index are 0
        message = "deseasonalized value at 2000-03 is not finite: value 1.2, seasonal index 0.0"
        for estimate in (seasonal_indices, decompose):
            with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
                estimate(values, MonthStamp(2000, 1))

    def test_from_values_normalizes(self):
        idx = SeasonalIndices.from_values(MULTIPLICATIVE, [2.0] * 12)
        assert idx.values == (1.0,) * 12
        idx = SeasonalIndices.from_values(ADDITIVE, [3.0] * 12)
        assert idx.values == (0.0,) * 12

    def test_twelve_values_required(self):
        for n in (11, 13):
            with pytest.raises(DataError, match="12 seasonal"):
                SeasonalIndices(MULTIPLICATIVE, (1.0,) * n)
            with pytest.raises(DataError, match="12 seasonal"):
                SeasonalIndices.from_values(ADDITIVE, [0.0] * n)

    def test_multiplicative_mean_must_be_positive(self):
        with pytest.raises(DataError, match="must have a positive mean"):
            SeasonalIndices.from_values(MULTIPLICATIVE, [-1.0] * 12)

    @pytest.mark.parametrize("model, special", [(ADDITIVE, math.nan), (MULTIPLICATIVE, math.nan), (ADDITIVE, math.inf)])
    def test_non_finite_index_rejected(self, model, special):
        with pytest.raises(DataError, match="seasonal indices must be finite"):
            SeasonalIndices(model, (special,) * 12)
        with pytest.raises(DataError, match="seasonal indices must be finite"):
            SeasonalIndices.from_values(model, (special,) + (1.0,) * 11)

    def test_indices_near_the_largest_double_are_checked_scaled(self):
        """The unscaled sum of these offsets overflowed, and they were rejected as not summing to 0."""
        values = (1.7e308, 1.7e308, -1.7e308, -1.7e308) + (0.0,) * 8
        assert SeasonalIndices(ADDITIVE, values).values == values

    def test_overflowing_index_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="seasonal indices must be finite"):
                SeasonalIndices.from_values(ADDITIVE, [1.7e308] * 11 + [-1.7e308])

    def test_unnormalized_construction_rejected(self):
        with pytest.raises(DataError, match="average 1"):
            SeasonalIndices(MULTIPLICATIVE, (1.1,) * 12)
        with pytest.raises(DataError, match="sum to 0"):
            SeasonalIndices(ADDITIVE, (0.5,) * 12)


class TestFitTrend:
    def test_exact_line(self):
        t = np.arange(1, 241)
        trend = fit_trend(117.2 + 2.09 * t)
        assert trend.intercept == pytest.approx(117.2, abs=1e-9)
        assert trend.slope == pytest.approx(2.09, abs=1e-9)

    def test_constant(self):
        trend = fit_trend([5.0] * 10)
        assert trend.intercept == 5.0
        assert trend.slope == 0.0

    def test_hand_computed_four_points(self):
        trend = fit_trend([1.0, 2.0, 2.0, 3.0])
        assert trend.slope == pytest.approx(0.6, abs=1e-12)
        assert trend.intercept == pytest.approx(0.5, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(DataError):
            fit_trend([1.0])

    def test_non_finite_value_is_data_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^trend input holds a non-finite value$"):
                fit_trend([1.0, math.inf, 2.0])

    def test_coefficient_past_the_largest_double_is_numeric_error(self):
        ramp = [1.7e308 * (2 * i / 23 - 1) for i in range(24)]  # its line is -1.85e308 at t = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit in (lambda: fit_trend(ramp), lambda: decompose(ramp, MonthStamp(2000, 1), ADDITIVE)):
                with pytest.raises(NumericError, match="^trend coefficients must be finite$"):
                    fit()

    def test_value_at(self):
        trend = fit_trend([1.0, 2.0, 3.0])
        assert trend.value_at(1) == pytest.approx(1.0)
        np.testing.assert_allclose(trend.value_at([1, 2, 3]), [1.0, 2.0, 3.0])


class TestAccuracyMetrics:
    def test_perfect_fit(self):
        m = accuracy_metrics([100.0, 200.0], [100.0, 200.0])
        assert (m.mape, m.mad, m.msd) == (0.0, 0.0, 0.0)

    def test_hand_computed(self):
        m = accuracy_metrics([100.0, 200.0], [90.0, 220.0])
        assert m.mape == pytest.approx(10.0, abs=1e-12)
        assert m.mad == pytest.approx(15.0, abs=1e-12)
        assert m.msd == pytest.approx(250.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            accuracy_metrics([1.0, 2.0], [1.0])

    def test_zero_actual(self):
        with pytest.raises(NumericError, match="zero actual"):
            accuracy_metrics([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(NumericError, match="MAPE undefined"):
            accuracy_metrics([1e-310, 1.0], [1.0, 1.0])  # the percentage error overflows

    def test_empty(self):
        with pytest.raises(DataError):
            accuracy_metrics([], [])

    def test_msd_overflow(self):
        with pytest.raises(NumericError, match="MSD undefined"):
            accuracy_metrics([1e200, 1.0], [1.0, 1.0])  # the squared error overflows


class TestDecompose:
    def test_constant_series(self):
        series = make_series([5.0] * 48)
        result = decompose(series)
        assert result.indices.values == (1.0,) * 12
        assert result.trend.slope == 0.0
        assert result.trend.intercept == 5.0
        assert (result.accuracy.mape, result.accuracy.mad, result.accuracy.msd) == (0.0, 0.0, 0.0)
        np.testing.assert_array_equal(result.fitted, np.full(48, 5.0), strict=True)

    def test_result_is_read_only_and_unhashable(self):
        result = decompose(make_series([5.0] * 48))
        assert not result.fitted.flags.writeable and not result.irregular.flags.writeable
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)

    def test_noise_free_additive_round_trip(self, rng):
        truth = rng.uniform(-10, 10, 12)
        values, start, idx = synthetic(ADDITIVE, 400.0, 1.3, truth)
        result = decompose(values, start, model=ADDITIVE)
        np.testing.assert_allclose(result.indices.values, idx, atol=1e-9)
        assert result.trend.intercept == pytest.approx(400.0, rel=1e-6)
        assert result.trend.slope == pytest.approx(1.3, rel=1e-6)
        assert result.accuracy.msd < 1e-8

    def test_noise_free_multiplicative_flat_trend_round_trip(self, rng):
        truth = 1 + rng.uniform(-0.05, 0.05, 12)
        values, start, idx = synthetic(MULTIPLICATIVE, 320.0, 0.0, truth)
        result = decompose(values, start, model=MULTIPLICATIVE)
        np.testing.assert_allclose(result.indices.values, idx, atol=1e-9)
        assert result.trend.intercept == pytest.approx(320.0, rel=1e-6)
        assert abs(result.trend.slope) < 1e-9
        assert result.accuracy.msd < 1e-8

    def test_reconstruction_identities(self, rng):
        n = 120
        start = MonthStamp.parse("1995-01")
        values = rng.uniform(100, 200, n) + np.linspace(0, 50, n)
        mult = decompose(values, start, model=MULTIPLICATIVE)
        np.testing.assert_allclose(np.array(mult.fitted) * np.array(mult.irregular), values, rtol=1e-10)
        add = decompose(values, start, model=ADDITIVE)
        np.testing.assert_allclose(np.array(add.fitted) + np.array(add.irregular), values, atol=1e-10 * values.max())

    def test_deterministic(self, rng):
        values = rng.uniform(50, 150, 96)
        start = MonthStamp.parse("2001-01")
        assert decompose(values, start) == decompose(values.tolist(), start)

    def test_accepts_price_series(self, rng):
        series = make_series(rng.uniform(100, 120, 60))
        result = decompose(series)
        assert len(result.fitted) == 60

    def test_accepts_return_series(self, rng):
        returns = to_returns(make_series(rng.uniform(100, 120, 60)))
        assert decompose(returns, model=ADDITIVE) == decompose(returns.values(), returns.start, ADDITIVE)

    def test_plain_values_require_stamps(self, rng):
        with pytest.raises(DataError, match="start month"):
            decompose(rng.uniform(1, 2, 48).tolist())

    def test_gold_like_panel_has_small_seasonal_effects(self, rng):
        # realistically proportioned synthetic data: indices within a few
        # percent of neutral must come back within 5% of neutral
        truth = 1 + rng.uniform(-0.02, 0.02, 12)
        values, start, _ = synthetic(MULTIPLICATIVE, 226.0, 2.3, truth, n=447)
        values = values * np.exp(rng.normal(0.0, 0.05, 447))
        result = decompose(values, start)
        assert max(abs(v - 1.0) for v in result.indices.values) < 0.05

    def test_mape_nan_when_actual_has_zero(self):
        start = MonthStamp.parse("2000-01")
        values = np.arange(48, dtype=float) - 10.0  # exact zero at position 10
        result = decompose(values, start, model=ADDITIVE)
        assert math.isnan(result.accuracy.mape)
        assert math.isfinite(result.accuracy.mad)
        assert math.isfinite(result.accuracy.msd)
        values[10], values[20] = 1e-310, 15.0  # a subnormal actual off the fit overflows MAPE
        assert math.isnan(decompose(values, start, model=ADDITIVE).accuracy.mape)

    def test_power_of_two_scale_near_the_largest_double_is_exact(self):
        # the trend fit's sums and the sum of absolute errors pass 1.8e308 unless they are scaled
        t = np.arange(48)
        unit = (1 + 0.5 * np.sin(t * np.pi / 6)) * np.exp(np.random.default_rng(1).normal(0.0, 0.1, 48))
        base = decompose(unit, MonthStamp(2000, 1))
        top = decompose(np.ldexp(unit, 1023), MonthStamp(2000, 1))
        assert top.indices == base.indices
        unscaled = (base.trend.intercept, base.trend.slope, base.accuracy.mad)
        assert (top.trend.intercept, top.trend.slope, top.accuracy.mad) == tuple(math.ldexp(v, 1023) for v in unscaled)
        assert top.accuracy.mape == base.accuracy.mape
        assert math.isnan(top.accuracy.msd)

    def test_additive_indices_near_the_largest_double_pass_their_own_check(self):
        """The check summed these indices unscaled, overflowed and asked for `from_values`, which `decompose` had used."""
        values = [0.0] * 6 + [1.7e308, 0.0, -1.7e308] + [0.0] * 15
        result = decompose(values, MonthStamp(2000, 1), model=ADDITIVE)
        assert max(result.indices.values) == pytest.approx(1.6763888888888888e308, rel=1e-12)
        assert math.isnan(result.accuracy.msd)

    @pytest.mark.parametrize("aggregator", ["median", "mean"])
    def test_raw_seasonals_whose_sum_overflows_aggregate_to_a_finite_index(self, aggregator):
        """Every July raw seasonal is 1.375e308: their middle pair, or their sum, overflowed to an index of -inf."""
        values = np.array([1.5e308 if i % 12 == 6 else 0.0 for i in range(60)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = decompose(values, MonthStamp(2000, 1), ADDITIVE, aggregator)
        small = decompose(np.ldexp(values, -4), MonthStamp(2000, 1), ADDITIVE, aggregator)  # the same sums, finite
        assert result.indices.values == tuple(math.ldexp(value, 4) for value in small.indices.values)
        assert max(result.indices.values) > 1e308

    @pytest.mark.parametrize("aggregator", ["median", "mean"])
    def test_calendar_month_without_raw_seasonals_is_numeric_error(self, aggregator):
        values = np.linspace(100.0, 135.0, 36)
        values[[0, 12, 24]] = np.nan  # every July; the MA windows around them leave no raw seasonal defined
        message = "deseasonalized value at 2000-07 is not finite: value nan, seasonal index nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=re.escape(message)):
                decompose(values, MonthStamp(2000, 7), aggregator=aggregator)

    @pytest.mark.parametrize("model", [ADDITIVE, MULTIPLICATIVE])
    def test_infinite_value_is_numeric_error(self, model):
        values = [1.0 + (i % 12) / 10 for i in range(48)]
        values[20] = math.inf
        with pytest.raises(NumericError, match="deseasonalized value at .* is not finite"):
            decompose(values, MonthStamp(2000, 1), model)

    def test_fitted_value_past_the_largest_double_is_numeric_error(self):
        values = np.ldexp(np.minimum(np.linspace(1.0, 2.3, 48), 1.9), 1023)  # a trend that ends above 2^1024
        with pytest.raises(NumericError, match="fitted value at 2003-08 is not finite: trend inf"):
            decompose(values, MonthStamp(2000, 1))


class TestSeasonalDeviationPercent:
    def test_neutral_index_is_zero(self):
        idx = SeasonalIndices(MULTIPLICATIVE, (1.0,) * 12)
        assert seasonal_deviation_percent(idx) == (0.0,) * 12

    def test_known_july_value(self):
        values = [1.0] * 12
        values[6] = 0.9781
        values[11] = 1.0219  # offsets July so the twelve average to one
        idx = SeasonalIndices(MULTIPLICATIVE, tuple(values))
        dev = seasonal_deviation_percent(idx)
        assert dev[6] == pytest.approx(-2.19, abs=1e-9)

    def test_multiplicative_deviations_average_zero(self, rng):
        raw = 1 + rng.uniform(-0.1, 0.1, 12)
        idx = SeasonalIndices.from_values(MULTIPLICATIVE, raw)
        dev = seasonal_deviation_percent(idx)
        assert abs(sum(dev)) < 1e-10

    def test_additive_fraction_scaling(self):
        idx = SeasonalIndices.from_values(ADDITIVE, [0.01, -0.01] + [0.0] * 10)
        assert seasonal_deviation_percent(idx)[0] == pytest.approx(0.01)
