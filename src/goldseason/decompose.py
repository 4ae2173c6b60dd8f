"""Classical seasonal decomposition with a linear trend, period 12 by default.

The pipeline estimates, in order:

1. a centered moving average over one full seasonal cycle (half-weighted
   endpoints when the period is even, so the window stays centered on a
   single month);
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
zero, or so small that the percentage errors overflow; `decompose` then
stores NaN while `accuracy_metrics` raises.
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


@dataclass(frozen=True)
class SeasonalIndices:
    """Normalized per-month seasonal factors (multiplicative) or offsets (additive)."""

    model: str
    values: tuple[float, ...]  # element i is calendar month i+1

    def __post_init__(self) -> None:
        _check_model(self.model)
        if len(self.values) < 2:
            raise DataError("seasonal indices need at least 2 entries")
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
        v = np.asarray(values, dtype=float)
        if model == MULTIPLICATIVE:
            mean = v.mean()
            if mean <= 0.0:
                raise DataError("multiplicative indices must have a positive mean")
            v = v / mean
        else:
            v = v - v.mean()
        return cls(model, tuple(float(x) for x in v))

    @property
    def period(self) -> int:
        return len(self.values)

    def for_month(self, month: int) -> float:
        """Index for a 1-based calendar month (or seasonal position)."""
        return self.values[month - 1]


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


def centered_ma(values: Sequence[float], period: int = 12) -> np.ndarray:
    """Centered moving average over one seasonal cycle.

    For an even period p the window spans p+1 observations with the two
    endpoints half-weighted; the result is NaN for the first and last p/2
    positions. Odd periods use a plain symmetric window of length p.
    """
    x = np.asarray(values, dtype=float)
    if period < 2:
        raise DataError(f"period must be at least 2, got {period}")
    if x.size < period + 1:
        raise DataError(f"series too short for centered MA: {x.size} < {period + 1}")
    if period % 2 == 0:
        weights = np.concatenate(([0.5], np.ones(period - 1), [0.5])) / period
        half = period // 2
    else:
        weights = np.ones(period) / period
        half = (period - 1) // 2
    out = np.full(x.size, np.nan)
    out[half:x.size - half] = np.convolve(x, weights, mode="valid")
    return out


def _season_positions(stamps: Sequence[MonthStamp] | None, n: int, period: int) -> np.ndarray:
    """1-based seasonal position per observation; calendar months when period is 12."""
    if period == 12:
        if stamps is None:
            raise DataError("stamps are required to group by calendar month")
        if len(stamps) != n:
            raise DataError(f"stamps length {len(stamps)} does not match values length {n}")
        return np.array([s.month for s in stamps], dtype=int)
    return (np.arange(n) % period) + 1


def seasonal_indices(
    values: Sequence[float],
    stamps: Sequence[MonthStamp] | None,
    model: str = MULTIPLICATIVE,
    period: int = 12,
    aggregator: str = MEDIAN,
) -> SeasonalIndices:
    """Estimate normalized seasonal indices from ratios (or differences) to the centered MA.

    Requires at least two full cycles. Multiplicative estimation demands
    strictly positive values.
    """
    _check_model(model)
    _check_aggregator(aggregator)
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2 * period:
        raise DataError(f"need at least {2 * period} observations for period {period}, got {n}")
    positions = _season_positions(stamps, n, period)
    if model == MULTIPLICATIVE and (x <= 0.0).any():
        bad = int(np.argmax(x <= 0.0))
        where = str(stamps[bad]) if stamps is not None else f"position {bad + 1}"
        raise DataError(f"multiplicative model requires positive values; got {x[bad]} at {where}")

    ma = centered_ma(x, period)
    defined = ~np.isnan(ma)
    with np.errstate(invalid="ignore"):
        raw = x / ma if model == MULTIPLICATIVE else x - ma

    aggregates = np.empty(period)
    for pos in range(1, period + 1):
        bucket = raw[defined & (positions == pos)]
        if bucket.size == 0:
            raise DataError(f"no detrended observations for seasonal position {pos}")
        aggregates[pos - 1] = np.median(bucket) if aggregator == MEDIAN else bucket.mean()
    return SeasonalIndices.from_values(model, aggregates)


def fit_trend(values: Sequence[float]) -> TrendLine:
    """Ordinary least squares of the values on t = 1..N."""
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise DataError(f"trend fit needs at least 2 observations, got {y.size}")
    t = np.arange(1, y.size + 1, dtype=float)
    t_dev = t - t.mean()
    slope = float((t_dev @ (y - y.mean())) / (t_dev @ t_dev))
    intercept = float(y.mean() - slope * t.mean())
    return TrendLine(intercept, slope)


def _error_metrics(actual: np.ndarray, fitted: np.ndarray) -> AccuracyMetrics:
    err = actual - fitted
    with np.errstate(all="ignore"):
        mape = float(100.0 * np.mean(np.abs(err) / np.abs(actual)))
    if not math.isfinite(mape):  # a zero or subnormal actual value
        mape = math.nan
    return AccuracyMetrics(mape, float(np.mean(np.abs(err))), float(np.mean(err * err)))


def accuracy_metrics(actual: Sequence[float], fitted: Sequence[float]) -> AccuracyMetrics:
    """MAPE/MAD/MSD between actual and fitted values.

    MAPE = 100 * mean(|actual - fitted| / |actual|), so it is undefined
    (NumericError) when any actual value is zero or the mean overflows.
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
    return metrics


def decompose(
    data: PriceSeries | ReturnSeries | Sequence[float],
    stamps: Sequence[MonthStamp] | None = None,
    model: str = MULTIPLICATIVE,
    period: int = 12,
    aggregator: str = MEDIAN,
) -> DecompositionResult:
    """Run the full classical decomposition pipeline on one series.

    Parameters
    ----------
    data : PriceSeries, ReturnSeries, or sequence of floats
        When a plain sequence is given, aligned stamps must accompany it
        (for period 12). Price data is normally decomposed
        multiplicatively; series that can be negative (returns) need the
        additive model.
    """
    values, stamps = _coerce(data, stamps)
    indices = seasonal_indices(values, stamps, model=model, period=period, aggregator=aggregator)
    positions = _season_positions(stamps, values.size, period)
    per_point = np.array([indices.for_month(p) for p in positions])

    deseasonalized = values / per_point if model == MULTIPLICATIVE else values - per_point
    trend = fit_trend(deseasonalized)
    trend_values = trend.value_at(np.arange(1, values.size + 1))
    fitted = trend_values * per_point if model == MULTIPLICATIVE else trend_values + per_point
    irregular = values / fitted if model == MULTIPLICATIVE else values - fitted

    return DecompositionResult(
        model=model,
        indices=indices,
        trend=trend,
        fitted=tuple(float(v) for v in fitted),
        irregular=tuple(float(v) for v in irregular),
        accuracy=_error_metrics(values, fitted),
    )


def seasonal_deviation_percent(indices: SeasonalIndices, fractional_units: bool = False) -> tuple[float, ...]:
    """Per-month percent deviation from the trend implied by seasonal indices.

    Multiplicative indices map to (value - 1) * 100. Additive offsets are
    scaled by 100 when the decomposed values were decimal fractions
    (fractional_units=True, e.g. monthly returns) and returned in input
    units otherwise.
    """
    if indices.model == MULTIPLICATIVE:
        return tuple((v - 1.0) * 100.0 for v in indices.values)
    if fractional_units:
        return tuple(v * 100.0 for v in indices.values)
    return tuple(indices.values)


def _coerce(
    data: PriceSeries | ReturnSeries | Sequence[float],
    stamps: Sequence[MonthStamp] | None,
) -> tuple[np.ndarray, tuple[MonthStamp, ...] | None]:
    if isinstance(data, PriceSeries):
        return data.prices(), data.stamps()
    if isinstance(data, ReturnSeries):
        return data.values(), data.stamps()
    values = np.asarray(data, dtype=float)
    return values, tuple(stamps) if stamps is not None else None
