"""The power-of-two scaled sums give the bits of the formulas in `reference_scaling` wherever those stay normal.

Where a step of those formulas overflows, or rounds a result in the subnormal range, the package may differ: the
old t-test rounded the mean of [5e-324, 0.0] to 0 before centring and gave t = 0, where the scaled one gives 1.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from goldseason import ADDITIVE, MULTIPLICATIVE, DataError, NumericError
from goldseason.decompose import _check_normalized, _normalize
from goldseason.stats import _mean_ttests, _pearson_r

import reference_scaling as reference

SCALES = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -12.0, 1e150, 1e155, -1e155, 1e300, 1.7e308, -1.7e308]
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from(SCALES),
)
models = st.sampled_from([ADDITIVE, MULTIPLICATIVE])


def in_normal_range(function, *args):
    """`function(*args)`, or the draw is rejected where one of its steps overflows or rounds below the normal range."""
    try:
        with np.errstate(over="raise", under="raise"):
            return function(*args)
    except FloatingPointError:
        assume(False)


def outcome(function, *args):
    """The result of `function(*args)`, or the type and message of the `DataError` or `NumericError` it raises."""
    try:
        return function(*args)
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)


def same_bits(mine, theirs) -> bool:
    if isinstance(theirs, tuple) and isinstance(theirs[0], type):
        return mine == theirs
    if isinstance(theirs, tuple):
        return all(same_bits(a, b) for a, b in zip(mine, theirs, strict=True))
    return mine.dtype == theirs.dtype and mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


@given(st.integers(1, 3), st.integers(2, 10), st.integers(1, 3), st.data())
@settings(max_examples=300)
def test_mean_ttests_keep_the_bits(k, m, buckets, data):
    present = data.draw(arrays(bool, (m, buckets)))
    values = np.where(present, data.draw(arrays(float, (k, m, buckets), elements=finite)), 0.0)
    theirs = in_normal_range(reference.mean_ttests, values, present)
    assert same_bits(_mean_ttests(values.copy(), present), theirs)


@given(st.integers(3, 20), st.integers(2, 4), st.data())
@settings(max_examples=300)
def test_pearson_r_keeps_the_bits(n, k, data):
    values = data.draw(arrays(float, (n, k), elements=finite))
    theirs = in_normal_range(outcome, reference.pearson_r, values)
    assert same_bits(outcome(_pearson_r, values.copy()), theirs)


@given(models, st.integers(1, 3), st.data())
@settings(max_examples=300)
def test_normalize_keeps_the_bits(model, k, data):
    raw = data.draw(arrays(float, (k, 12), elements=finite))
    theirs = in_normal_range(outcome, reference.normalize, model, raw)
    assert same_bits(outcome(_normalize, model, raw.copy()), theirs)


@given(models, st.lists(finite, min_size=12, max_size=12), st.integers(0, 11),
       st.floats(min_value=-1e-8, max_value=1e-8))
@settings(max_examples=500)
def test_index_check_keeps_its_verdict_away_from_the_tolerance(model, raw, month, nudge):
    """Indices normalized, then one nudged by up to 1e-8 of the largest: accepted or rejected as before, message too."""
    with np.errstate(over="ignore"):
        row = outcome(reference.normalize, model, np.array(raw))
    assume(isinstance(row, np.ndarray) and np.isfinite(row).all())
    scale = max(1.0, float(np.abs(row).max()))
    row[month] += nudge * scale
    values = row.tolist()
    assume(all(map(math.isfinite, values)) and math.isfinite(sum(values)))  # the old check sums without scaling
    exact = abs(sum(map(Fraction, values)) / 12 - (1 if model == MULTIPLICATIVE else 0))
    tolerance = Fraction(1e-12) * Fraction(max(1.0, max(map(abs, values))))
    assume(not tolerance / 2 <= exact <= 2 * tolerance)
    assert outcome(_check_normalized, model, [values]) == outcome(reference.check_normalized, model, [values])
