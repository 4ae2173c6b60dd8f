"""Hostile input to the numeric library functions: each raises a `GoldseasonError` or returns finite values.

Values are drawn from 0, +-5e-324, +-1e-300, +-1e155, +-1.7e308, +-inf and NaN, mixed with any float, in
lists of up to 60 values, and every call runs with warnings as errors. The NaN accuracy metrics of a decomposition
are documented exceptions, as are the NaN ends of a centered moving average and the infinite t of a correlation of
+-1. Functions documented to reject a value that is not finite must raise `DataError` for one.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from goldseason import (
    ADDITIVE,
    MEAN,
    MEDIAN,
    MULTIPLICATIVE,
    DataError,
    GoldseasonError,
    MonthStamp,
    PriceSeries,
    ReturnSeries,
    SeasonalIndices,
    SeriesPanel,
    accuracy_metrics,
    centered_ma,
    correlation_matrix,
    correlation_significance,
    cumulative_growth,
    decompose,
    fit_trend,
    monthly_mean_returns,
    one_sample_ttest,
    pearson,
    seasonal_deviation_percent,
    seasonal_indices,
    to_returns,
)
from goldseason.stats import PRICES, RETURNS

HOSTILE = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e155, -1e155, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
numbers = st.one_of(st.sampled_from(HOSTILE), st.floats())
samples = st.integers(0, 60).flatmap(lambda n: st.lists(numbers, min_size=n, max_size=n))
models = st.sampled_from([ADDITIVE, MULTIPLICATIVE])
aggregators = st.sampled_from([MEDIAN, MEAN])
starts = st.builds(MonthStamp, st.just(2000), st.integers(1, 12))


def outcome(call, *args):
    """`call(*args)` with warnings as errors, or the `GoldseasonError` it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except GoldseasonError as exc:
            return exc


def finite(*values) -> bool:
    return all(np.isfinite(np.asarray(value, dtype=float)).all() for value in values)


def check(result, values, *fields) -> None:
    """A raised fault, a `DataError` where `values` hold a NaN or inf, or else finite `fields` of the result."""
    if not finite(*values):
        assert isinstance(result, DataError), result
    elif not isinstance(result, GoldseasonError):
        assert all(finite(getattr(result, name)) for name in fields), result


@given(samples, numbers)
@example([-1.7e308, -1.7e308, 1.7e308], 0.0)  # the mean was subtracted unscaled, which overflowed
@example([1.7e308, 1.0, 2.0], -1.7e308)  # mu0 was subtracted unscaled, which overflowed
@settings(max_examples=300)
def test_one_sample_ttest(sample, mu0):
    check(outcome(one_sample_ttest, sample, mu0), sample + [mu0], "t_stat", "p_value")


@given(st.lists(st.tuples(numbers, numbers), max_size=40), st.lists(numbers, max_size=1))
@settings(max_examples=300)
def test_pearson(pairs, extra):
    x, y = [list(column) for column in zip(*pairs)] or ([], [])
    result = outcome(pearson, x + extra, y)
    check(result, x + extra + y)
    assert isinstance(result, GoldseasonError) or finite(result)


@given(st.tuples(st.integers(0, 30), st.integers(1, 4)).flatmap(lambda shape: arrays(float, shape, elements=numbers)),
       st.sampled_from([PRICES, RETURNS]))
@example(np.array([[1.0, 2.0], [math.inf, 3.0], [2.0, 5.0], [3.0, 4.0]]), PRICES)  # warned in the centring
@example(np.array([[1.0, 2.0], [math.nan, 3.0], [2.0, 5.0], [3.0, 4.0]]), PRICES)  # gave NaN r and p
@settings(max_examples=300)
def test_correlation_matrix(prices, basis):
    codes = ("AAA", "BBB", "CCC", "DDD")[:prices.shape[1]]
    result = outcome(lambda: correlation_matrix(SeriesPanel("g", MonthStamp(2000, 1), codes, prices), basis))
    check(result, prices if basis == PRICES else [], "values", "p_values")


@given(samples, starts)
@example([0.01 * (i % 5) - 0.02 for i in range(9)] + [math.nan] + [0.01 * (i % 5) - 0.02 for i in range(10, 24)],
         MonthStamp(2000, 2))  # raised "calendar month 11: constant sample"
@settings(max_examples=300)
def test_monthly_mean_returns(values, start):
    result = outcome(lambda: monthly_mean_returns(ReturnSeries("USD", start, values)))
    check(result, values)
    if not isinstance(result, GoldseasonError):
        assert all(finite(rec.mean, rec.t_stat, rec.p_value) for rec in result.per_month + (result.overall,))


@given(models, samples)
@example(ADDITIVE, [1.7e308, 1.7e308, -1.7e308, -1.7e308] + [0.0] * 8)  # the unscaled sum overflowed: rejected
@settings(max_examples=300)
def test_seasonal_indices_record(model, values):
    """Finite indices are accepted where their exact mean is the model's, and others raise."""
    result = outcome(SeasonalIndices, model, tuple(values))
    check(result, values, "values")
    if len(values) == 12 and finite(*values):
        exact = sum(map(Fraction, values)) / 12 == (1 if model == MULTIPLICATIVE else 0)
        assert not exact or not isinstance(result, GoldseasonError), result


@given(models, samples)
@example(ADDITIVE, [1.7e308] * 11 + [-1.7e308])  # an index overflows: warned before it was rejected
@settings(max_examples=300)
def test_seasonal_indices_from_values(model, values):
    check(outcome(SeasonalIndices.from_values, model, values), values, "values")


@given(models, st.lists(numbers, min_size=12, max_size=12))
@example(MULTIPLICATIVE, [0.0] * 10 + [1.7e308, -1.7e308])  # averages 1 to rounding; (1.7e308 - 1) * 100 overflowed
@settings(max_examples=300)
def test_seasonal_deviation_percent(model, values):
    """Of the indices as drawn where the record accepts them, else as `from_values` normalizes them."""
    indices = outcome(SeasonalIndices, model, tuple(values))
    if isinstance(indices, GoldseasonError):
        indices = outcome(SeasonalIndices.from_values, model, values)
    if not isinstance(indices, GoldseasonError):
        result = outcome(seasonal_deviation_percent, indices)
        assert isinstance(result, GoldseasonError) or finite(result), result


@given(samples)
@settings(max_examples=300)
def test_fit_trend(values):
    check(outcome(fit_trend, values), values, "intercept", "slope")


@given(st.lists(st.tuples(numbers, numbers), max_size=40), st.lists(numbers, max_size=1))
@settings(max_examples=300)
def test_accuracy_metrics(pairs, extra):
    actual, fitted = [list(column) for column in zip(*pairs)] or ([], [])
    result = outcome(accuracy_metrics, actual + extra, fitted)
    assert isinstance(result, GoldseasonError) or finite(result.mape, result.mad, result.msd), result


@given(samples, starts, models, aggregators)
@example([0.0] * 6 + [1.7e308, 0.0, -1.7e308] + [0.0] * 15, MonthStamp(2000, 1), ADDITIVE, MEDIAN)  # "use from_values"
@settings(max_examples=300, deadline=None)
def test_decompose(values, start, model, aggregator):
    """Finite components, or a fault that is not the index check's advice to normalize: the indices are its own."""
    result = outcome(decompose, values, start, model, aggregator)
    if isinstance(result, GoldseasonError):
        assert "from_values" not in str(result)
    else:
        assert finite(result.indices.values, result.trend.intercept, result.trend.slope, result.fitted,
                      result.irregular), result


@given(samples, starts, models, aggregators)
@example([0.0] * 6 + [1.7e308, 0.0, -1.7e308] + [0.0] * 15, MonthStamp(2000, 1), ADDITIVE, MEDIAN)
@settings(max_examples=300, deadline=None)
def test_seasonal_indices(values, start, model, aggregator):
    result = outcome(seasonal_indices, values, start, model, aggregator)
    if isinstance(result, GoldseasonError):
        assert "from_values" not in str(result)
    else:
        assert finite(result.values), result


@given(samples)
@settings(max_examples=300)
def test_centered_ma(values):
    result = outcome(centered_ma, values)
    check(result, values)
    if not isinstance(result, GoldseasonError):
        assert finite(result[6:-6]) and np.isnan(np.r_[result[:6], result[-6:]]).all(), result


@given(numbers, st.integers(), numbers)
@example(0.5, 10 ** 400, 0.05)  # n past the largest double raised OverflowError
@settings(max_examples=300)
def test_correlation_significance(r, n, alpha):
    result = outcome(correlation_significance, r, n, alpha)
    check(result, [r], "p_value")
    if not isinstance(result, GoldseasonError):
        assert finite(result.t_stat) or abs(r) >= 1.0, result


@given(samples)
@settings(max_examples=300)
def test_cumulative_growth(values):
    result = outcome(lambda: cumulative_growth(PriceSeries("USD", MonthStamp(2000, 1), values)))
    assert isinstance(result, GoldseasonError) or finite(result), result


@given(samples)
@settings(max_examples=300)
def test_to_returns(values):
    result = outcome(lambda: to_returns(PriceSeries("USD", MonthStamp(2000, 1), values)))
    assert isinstance(result, GoldseasonError) or finite(result.values()), result
