"""The numeric library functions never write into an array the caller passed, or into a view of one.

Each function gets a column of a writable float64 (n, k) matrix: with k = 1 the column is contiguous, so a
conversion such as `np.asarray` or `np.ascontiguousarray(x.T)` returns a view of the caller's memory; with
k > 1 it is strided. Functions of a panel get the whole matrix. Whatever the call returns or raises, the
matrix must keep its bits and stay writable.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from goldseason import (
    ADDITIVE,
    MEAN,
    MEDIAN,
    MULTIPLICATIVE,
    GoldseasonError,
    MonthStamp,
    SeriesPanel,
    accuracy_metrics,
    centered_ma,
    correlation_matrix,
    decompose,
    fit_trend,
    one_sample_ttest,
    pearson,
    seasonal_indices,
)
from goldseason.stats import PRICES, RETURNS

CODES = ("AAA", "BBB", "CCC", "DDD")
# mostly prices, with the zeros, negatives and extremes that send a call down its fault paths
elements = st.one_of(st.floats(0.5, 5000.0), st.sampled_from([0.0, -3.0, 5e-324, 1.7e308, np.nan]))
matrices = st.tuples(st.integers(24, 60), st.integers(1, 4)).flatmap(
    lambda shape: arrays(float, shape, elements=elements))
starts = st.builds(MonthStamp, st.just(2000), st.integers(1, 12))
models = st.sampled_from([ADDITIVE, MULTIPLICATIVE])
aggregators = st.sampled_from([MEDIAN, MEAN])


def assert_untouched(matrix: np.ndarray, call) -> None:
    """`call()`, returning or raising a fault, leaves `matrix` writable and bit for bit as it was."""
    before = matrix.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # only the input's bits are checked here, not the warnings a fault gives
        try:
            call()
        except GoldseasonError:
            pass
    assert matrix.flags.writeable
    assert matrix.tobytes() == before


@given(matrices, starts, models, aggregators)
@settings(max_examples=150, deadline=None)
def test_decompose(matrix, start, model, aggregator):
    assert_untouched(matrix, lambda: decompose(matrix[:, 0], start, model, aggregator))
    assert_untouched(matrix, lambda: decompose(matrix[:, -1], start, model, aggregator))
    assert_untouched(matrix, lambda: decompose(SeriesPanel("g", start, CODES[:matrix.shape[1]], matrix),
                                               model=model, aggregator=aggregator))


@given(matrices, starts, models, aggregators)
@settings(max_examples=100, deadline=None)
def test_seasonal_indices(matrix, start, model, aggregator):
    assert_untouched(matrix, lambda: seasonal_indices(matrix[:, 0], start, model, aggregator))
    assert_untouched(matrix, lambda: seasonal_indices(matrix[:, -1], start, model, aggregator))


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_series_functions(matrix):
    for column in (matrix[:, 0], matrix[:, -1]):
        for function in (fit_trend, centered_ma, one_sample_ttest):
            assert_untouched(matrix, lambda: function(column))


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_pair_functions(matrix):
    for function in (accuracy_metrics, pearson):
        assert_untouched(matrix, lambda: function(matrix[:, 0], matrix[:, -1]))
        assert_untouched(matrix, lambda: function(matrix[:, -1], matrix[:, 0]))


@given(matrices, st.sampled_from([PRICES, RETURNS]))
@settings(max_examples=100, deadline=None)
def test_correlation_matrix(matrix, basis):
    assert_untouched(matrix, lambda: correlation_matrix(SeriesPanel("g", MonthStamp(2000, 1),
                                                                    CODES[:matrix.shape[1]], matrix), basis))
