"""Classical seasonal decomposition of a monthly series with a linear trend.

The seasonal axis is the calendar month. The pipeline estimates, in order:

1. a centered 2x12 moving average (13 observations with half-weighted
   endpoints, so the window stays centered on a single month);
2. raw seasonals as value/MA (multiplicative) or value-MA (additive)
   wherever the MA is defined, grouped by calendar month and aggregated
   with the median (default) or mean;
3. normalized seasonal indices: multiplicative indices are rescaled to
   average exactly 1, additive offsets recentered to sum exactly 0;
4. an ordinary least-squares line fit to the deseasonalized values
   against t = 1..N (t = 1 at the first observation, slope per month);
5. fitted values trend(t) * index (or +), the irregular component as the
   remaining ratio (or difference), and MAPE/MAD/MSD accuracy metrics.

No cyclical component is estimated; whatever the trend and seasonal
indices do not explain lands in the irregular component. The first and
last half-cycle of raw seasonals are simply absent (no backcasting), which
only reduces the per-month bucket sizes.

MAPE is reported in percent. It is undefined when any actual value is
zero or so small that the percentage errors overflow, MSD when the
squared errors overflow, and MAD when an error does; `decompose` then
stores NaN, `accuracy_metrics` raises. A deseasonalized or fitted value
that is not finite, which values near the largest double or seasonal
indices near zero can give, makes `decompose` raise NumericError naming
the month and the values it came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .series import MonthStamp, PriceSeries, ReturnSeries

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
MEDIAN = "median"
MEAN = "mean"


def _check_model(model: str) -> None:
    if model not in (ADDITIVE, MULTIPLICATIVE):
        raise DataError(f"model must be {ADDITIVE!r} or {MULTIPLICATIVE!r}, got {model!r}")


def _check_aggregator(aggregator: str) -> None:
    if aggregator not in (MEDIAN, MEAN):
        raise DataError(f"aggregator must be {MEDIAN!r} or {MEAN!r}, got {aggregator!r}")


def _check_twelve(values: Sequence[float]) -> None:
    if len(values) != 12:
        raise DataError(f"need 12 seasonal indices, got {len(values)}")


@dataclass(frozen=True)
class SeasonalIndices:
    """Normalized per-month seasonal factors (multiplicative) or offsets (additive)."""

    model: str
    values: tuple[float, ...]  # element i is calendar month i+1

    def __post_init__(self) -> None:
        _check_model(self.model)
        _check_twelve(self.values)
        scale = max(1.0, max(abs(v) for v in self.values))
        if self.model == MULTIPLICATIVE:
            if abs(sum(self.values) / len(self.values) - 1.0) > 1e-12 * scale:
                raise DataError("multiplicative indices must average 1; use from_values to normalize")
        else:
            if abs(sum(self.values)) > 1e-12 * scale * len(self.values):
                raise DataError("additive indices must sum to 0; use from_values to normalize")

    @classmethod
    def from_values(cls, model: str, values: Sequence[float]) -> "SeasonalIndices":
        """Build indices from raw per-month aggregates, normalizing them."""
        _check_model(model)
        _check_twelve(values)
        v = np.asarray(values, dtype=float)
        if model == MULTIPLICATIVE:
            mean = v.mean()
            if mean <= 0.0:
                raise DataError("multiplicative indices must have a positive mean")
            v = v / mean
        else:
            v = v - v.mean()
        return cls(model, tuple(float(x) for x in v))


@dataclass(frozen=True)
class TrendLine:
    """Linear trend value = intercept + slope * t, with t = 1 at the first observation."""

    intercept: float
    slope: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise NumericError("trend coefficients must be finite")

    def value_at(self, t):
        """Trend value at position(s) t (1-based)."""
        return self.intercept + self.slope * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class AccuracyMetrics:
    """MAPE (percent), MAD (input units), MSD (input units squared)."""

    mape: float
    mad: float
    msd: float


@dataclass(frozen=True)
class DecompositionResult:
    model: str
    indices: SeasonalIndices
    trend: TrendLine
    fitted: tuple[float, ...]
    irregular: tuple[float, ...]
    accuracy: AccuracyMetrics


def centered_ma(values: Sequence[float]) -> np.ndarray:
    """Centered 2x12 moving average.

    The window spans 13 observations with the two endpoints half-weighted;
    the result is NaN for the first and last 6 positions.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 13:
        raise DataError(f"series too short for centered MA: {x.size} < 13")
    out = np.full(x.size, np.nan)
    out[6:x.size - 6] = np.convolve(x, np.concatenate(([0.5], np.ones(11), [0.5])) / 12, mode="valid")
    return out


def seasonal_indices(
    values: Sequence[float],
    start: MonthStamp | None,
    model: str = MULTIPLICATIVE,
    aggregator: str = MEDIAN,
) -> SeasonalIndices:
    """Estimate normalized seasonal indices from ratios (or differences) to the centered MA.

    `start` is the stamp of the first value. Requires at least two full
    years, so the MA covers every calendar month. Multiplicative
    estimation demands strictly positive values.
    """
    _check_model(model)
    _check_aggregator(aggregator)
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 24:
        raise DataError(f"need at least 24 observations, got {n}")
    if start is None:
        raise DataError("a start month is required to group by calendar month")
    if model == MULTIPLICATIVE and (x <= 0.0).any():
        bad = int(np.argmax(x <= 0.0))
        raise DataError(f"multiplicative model requires positive values; got {x[bad]} at {start.shift(bad)}")

    ma = centered_ma(x)
    slots = start.calendar_slots(n)
    raws = np.full(slots.shape, np.nan)  # a column per calendar month, NaN where the MA is undefined
    with np.errstate(over="ignore", invalid="ignore"):  # a middle pair's sum may overflow; an odd count skips it
        raws[slots] = x / ma if model == MULTIPLICATIVE else x - ma
        if aggregator == MEAN:
            return SeasonalIndices.from_values(model, np.nanmean(raws, axis=0))
        ordered = np.sort(raws, axis=0)  # NaN sorts last
        counts = np.count_nonzero(~np.isnan(ordered), axis=0)
        low, high = ordered[(counts - 1) // 2, np.arange(12)], ordered[counts // 2, np.arange(12)]
        return SeasonalIndices.from_values(model, np.where(counts % 2 == 1, low, (low + high) / 2.0))


def fit_trend(values: Sequence[float]) -> TrendLine:
    """Ordinary least squares of the values on t = 1..N."""
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise DataError(f"trend fit needs at least 2 observations, got {y.size}")
    _, exponent = np.frexp(np.abs(y).max())  # a power-of-two scale keeps the sums finite and the bits
    y = np.ldexp(y, -exponent)
    t = np.arange(1, y.size + 1, dtype=float)
    t_dev = t - t.mean()
    slope = (t_dev @ (y - y.mean())) / (t_dev @ t_dev)
    intercept = y.mean() - slope * t.mean()
    with np.errstate(over="ignore"):  # TrendLine rejects a coefficient that overflows
        return TrendLine(*(float(np.ldexp(c, exponent)) for c in (intercept, slope)))


def _error_metrics(actual: np.ndarray, fitted: np.ndarray) -> AccuracyMetrics:
    with np.errstate(all="ignore"):
        err = np.abs(actual - fitted)
        mape = float(100.0 * np.mean(err / np.abs(actual)))
        msd = float(np.mean(err * err))
        _, exponent = np.frexp(err.max())  # a power-of-two scale keeps the sum of errors finite
        mad = float(np.ldexp(np.mean(np.ldexp(err, -exponent)), exponent))
    if not math.isfinite(mape):  # a zero or subnormal actual value
        mape = math.nan
    if not math.isfinite(msd):  # squared errors overflow
        msd = math.nan
    if not math.isfinite(mad):  # an error overflows
        mad = math.nan
    return AccuracyMetrics(mape, mad, msd)


def accuracy_metrics(actual: Sequence[float], fitted: Sequence[float]) -> AccuracyMetrics:
    """MAPE/MAD/MSD between actual and fitted values.

    MAPE = 100 * mean(|actual - fitted| / |actual|), so it is undefined
    (NumericError) when any actual value is zero or the mean overflows;
    MSD is undefined (NumericError) when the squared errors overflow.
    """
    a = np.asarray(actual, dtype=float)
    f = np.asarray(fitted, dtype=float)
    if a.size != f.size:
        raise DataError(f"length mismatch: {a.size} actual vs {f.size} fitted")
    if a.size < 1:
        raise DataError("accuracy metrics need at least one observation")
    metrics = _error_metrics(a, f)
    if math.isnan(metrics.mape):
        raise NumericError("zero actual value or overflow: MAPE undefined")
    if math.isnan(metrics.msd):
        raise NumericError("squared errors overflow: MSD undefined")
    if math.isnan(metrics.mad):
        raise NumericError("errors overflow: MAD undefined")
    return metrics


def decompose(
    data: PriceSeries | ReturnSeries | Sequence[float],
    start: MonthStamp | None = None,
    model: str = MULTIPLICATIVE,
    aggregator: str = MEDIAN,
) -> DecompositionResult:
    """Run the full classical decomposition pipeline on one series.

    Parameters
    ----------
    data : PriceSeries, ReturnSeries, or sequence of floats
        A plain sequence needs `start`, the stamp of its first value. Price
        data is normally decomposed multiplicatively; series that can be
        negative (returns) need the additive model.
    """
    values, start = _coerce(data, start)
    indices = seasonal_indices(values, start, model=model, aggregator=aggregator)
    slots = start.calendar_slots(values.size)
    per_point = np.broadcast_to(indices.values, slots.shape)[slots]

    with np.errstate(all="ignore"):  # checked below
        deseasonalized = values / per_point if model == MULTIPLICATIVE else values - per_point
    _check_finite("deseasonalized value", deseasonalized, start, {"value": values, "seasonal index": per_point})
    trend = fit_trend(deseasonalized)
    with np.errstate(all="ignore"):  # fitted values are checked below; an irregular ratio may be infinite
        trend_values = trend.value_at(np.arange(1, values.size + 1))
        fitted = trend_values * per_point if model == MULTIPLICATIVE else trend_values + per_point
        irregular = values / fitted if model == MULTIPLICATIVE else values - fitted
    _check_finite("fitted value", fitted, start, {"trend": trend_values, "seasonal index": per_point})

    return DecompositionResult(
        model=model,
        indices=indices,
        trend=trend,
        fitted=tuple(fitted.tolist()),
        irregular=tuple(irregular.tolist()),
        accuracy=_error_metrics(values, fitted),
    )


def _check_finite(name: str, component: np.ndarray, start: MonthStamp, inputs: dict[str, np.ndarray]) -> None:
    """Raise NumericError at the first month where a component is not finite, naming the inputs it came from."""
    unusable = ~np.isfinite(component)
    if unusable.any():
        bad = int(np.argmax(unusable))
        causes = ", ".join(f"{label} {float(array[bad])!r}" for label, array in inputs.items())
        raise NumericError(f"{name} at {start.shift(bad)} is not finite: {causes}")


def seasonal_deviation_percent(indices: SeasonalIndices) -> tuple[float, ...]:
    """Per-month percent deviation from the trend implied by seasonal indices.

    Multiplicative indices map to (value - 1) * 100. Additive offsets are
    returned in input units.
    """
    if indices.model == MULTIPLICATIVE:
        return tuple((v - 1.0) * 100.0 for v in indices.values)
    return tuple(indices.values)


def _coerce(
    data: PriceSeries | ReturnSeries | Sequence[float],
    start: MonthStamp | None,
) -> tuple[np.ndarray, MonthStamp | None]:
    if isinstance(data, PriceSeries):
        return data.prices(), data.start
    if isinstance(data, ReturnSeries):
        return data.values(), data.start
    return np.asarray(data, dtype=float), start
