"""A naive loop-based decomposition, the independent oracle for `goldseason.decompose`.

`reference_decompose` re-implements the decomposition pipeline with plain
Python loops, exact summation (math.fsum) and an explicitly solved 2x2
normal-equation OLS. It shares no numeric code with
`goldseason.decompose.decompose`, and it finds each value's calendar month
by stepping month stamps rather than by modular arithmetic, so the two
routes can be checked against each other.
"""

import math
import statistics

from goldseason.decompose import (
    MEDIAN,
    MULTIPLICATIVE,
    AccuracyMetrics,
    DecompositionResult,
    SeasonalIndices,
    TrendLine,
    _check_aggregator,
    _check_model,
    _coerce,
)
from goldseason.errors import DataError


def reference_decompose(
    data,
    start=None,
    model: str = MULTIPLICATIVE,
    period: int = 12,
    aggregator: str = MEDIAN,
) -> DecompositionResult:
    """Naive loop-based decomposition with the same contract as `decompose`."""
    _check_model(model)
    _check_aggregator(aggregator)
    values_arr, start = _coerce(data, start)
    values = [float(v) for v in values_arr]
    n = len(values)
    if n < 2 * period:
        raise DataError(f"need at least {2 * period} observations for period {period}, got {n}")
    if model == MULTIPLICATIVE and any(v <= 0.0 for v in values):
        raise DataError("multiplicative model requires positive values")
    if period == 12:
        if start is None:
            raise DataError("a start month is required to group by calendar month")
        positions = [start.shift(i).month for i in range(n)]
    else:
        positions = [(i % period) + 1 for i in range(n)]

    # centered moving average, endpoints half-weighted for even periods
    half = period // 2 if period % 2 == 0 else (period - 1) // 2
    ma: list[float | None] = [None] * n
    for i in range(half, n - half):
        if period % 2 == 0:
            window = [0.5 * values[i - half], 0.5 * values[i + half]]
            window.extend(values[i - half + 1:i + half])
        else:
            window = values[i - half:i + half + 1]
        ma[i] = math.fsum(window) / period

    buckets: dict[int, list[float]] = {p: [] for p in range(1, period + 1)}
    for i in range(n):
        m = ma[i]
        if m is None:
            continue
        raw = values[i] / m if model == MULTIPLICATIVE else values[i] - m
        buckets[positions[i]].append(raw)

    aggregates = []
    for pos in range(1, period + 1):
        bucket = buckets[pos]
        if not bucket:
            raise DataError(f"no detrended observations for seasonal position {pos}")
        if aggregator == MEDIAN:
            aggregates.append(statistics.median(bucket))
        else:
            aggregates.append(math.fsum(bucket) / len(bucket))

    center = math.fsum(aggregates) / period
    if model == MULTIPLICATIVE:
        index_values = [a / center for a in aggregates]
    else:
        index_values = [a - center for a in aggregates]
    indices = SeasonalIndices(model, tuple(index_values))

    if model == MULTIPLICATIVE:
        deseason = [values[i] / index_values[positions[i] - 1] for i in range(n)]
    else:
        deseason = [values[i] - index_values[positions[i] - 1] for i in range(n)]

    # OLS on t = 1..n by explicitly solved normal equations
    st = math.fsum(range(1, n + 1))
    stt = math.fsum(t * t for t in range(1, n + 1))
    sy = math.fsum(deseason)
    sty = math.fsum((i + 1) * deseason[i] for i in range(n))
    det = n * stt - st * st
    slope = (n * sty - st * sy) / det
    intercept = (sy * stt - st * sty) / det
    trend = TrendLine(intercept, slope)

    fitted = []
    irregular = []
    for i in range(n):
        tv = intercept + slope * (i + 1)
        f = tv * index_values[positions[i] - 1] if model == MULTIPLICATIVE else tv + index_values[positions[i] - 1]
        fitted.append(f)
        irregular.append(values[i] / f if model == MULTIPLICATIVE else values[i] - f)

    abs_err = [abs(values[i] - fitted[i]) for i in range(n)]
    if any(v == 0.0 for v in values):
        mape = math.nan
    else:
        mape = 100.0 * math.fsum(abs_err[i] / abs(values[i]) for i in range(n)) / n
    mad = math.fsum(abs_err) / n
    msd = math.fsum(e * e for e in abs_err) / n

    return DecompositionResult(
        model=model,
        indices=indices,
        trend=trend,
        fitted=tuple(fitted),
        irregular=tuple(irregular),
        accuracy=AccuracyMetrics(mape, mad, msd),
    )
