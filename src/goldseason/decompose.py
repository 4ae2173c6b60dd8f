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

`decompose` of a panel runs every column in one pass whose every
statistic is a reduction along one axis; one series is the one-column case
of the same code, so a column gives the same bits either way.

No cyclical component is estimated; whatever the trend and seasonal
indices do not explain lands in the irregular component. The first and
last half-cycle of raw seasonals are simply absent (no backcasting), which
only reduces the per-month bucket sizes.

MAPE is reported in percent. It is undefined when any actual value is
zero or so small that the percentage errors overflow, MSD when the
squared errors overflow, and MAD when an error does, which makes MSD
undefined too; `decompose` then stores NaN, `accuracy_metrics` raises. A
deseasonalized or fitted value that is not finite, which values near the
largest double or seasonal indices near zero can give, makes `decompose`
raise NumericError naming the month and the values it came from.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, NumericError
from .series import (MonthStamp, PriceSeries, ReturnSeries, SeriesPanel, _read_only, _Record, _records_equal,
                     _require_finite, _row_blocks, _unit_scale)

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
MEDIAN = "median"
MEAN = "mean"

# What each model does with a season: how it is put on a trend, how it is taken off a value, which index is neutral.
_PUT_ON = {MULTIPLICATIVE: np.multiply, ADDITIVE: np.add}
_TAKE_OFF = {MULTIPLICATIVE: np.divide, ADDITIVE: np.subtract}
_NEUTRAL = {MULTIPLICATIVE: 1.0, ADDITIVE: 0.0}


def _check_model(model: str) -> None:
    if not isinstance(model, str) or model not in _NEUTRAL:
        raise DataError(f"model must be {ADDITIVE!r} or {MULTIPLICATIVE!r}, got {model!r}")


def _check_aggregator(aggregator: str) -> None:
    if aggregator not in (MEDIAN, MEAN):
        raise DataError(f"aggregator must be {MEDIAN!r} or {MEAN!r}, got {aggregator!r}")


def _check_twelve(values: Sequence[float]) -> None:
    if len(values) != 12:
        raise DataError(f"need 12 seasonal indices, got {len(values)}")


class SeasonalIndices(_Record):
    """Normalized per-month seasonal factors (multiplicative) or offsets (additive)."""

    model: str
    values: tuple[float, ...]  # element i is calendar month i+1

    def __post_init__(self) -> None:
        _check_model(self.model)
        _check_twelve(self.values)
        if not all(map(math.isfinite, self.values)):
            raise DataError(f"seasonal indices must be finite, got {list(self.values)}")
        _check_normalized(self.model, [self.values])

    @classmethod
    def from_values(cls, model: str, values: Sequence[float]) -> "SeasonalIndices":
        """Build indices from raw per-month aggregates, normalizing them."""
        _check_model(model)
        _check_twelve(values)
        return cls(model, tuple(_normalize(model, np.asarray(values, dtype=float)).tolist()))


def _normalize(model: str, raw: np.ndarray) -> np.ndarray:
    """Aggregates along the last axis normalized as `SeasonalIndices` requires; a multiplicative mean must be > 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a mean <= 0 or an index not finite raises
        scaled, exponents = _unit_scale(raw, -1)
        means = np.ldexp(scaled.mean(axis=-1, keepdims=True), exponents)
        normalized = _TAKE_OFF[model](raw, means)
    if model == MULTIPLICATIVE and (means <= 0.0).any():
        raise DataError("multiplicative indices must have a positive mean")
    return normalized


def _check_normalized(model: str, rows) -> None:
    """Raise unless each row of 12 indices averages 1 (multiplicative) or 0 (additive), to rounding."""
    rows = np.asarray(rows, dtype=float)
    scaled, exponents = _unit_scale(rows, -1)
    errors = np.abs(np.ldexp(scaled.mean(axis=-1), exponents[:, 0]) - _NEUTRAL[model])
    if (errors > 1e-12 * np.maximum(1.0, np.abs(rows).max(axis=-1))).any():
        rule = "average 1" if model == MULTIPLICATIVE else "sum to 0"
        raise DataError(f"{model} indices must {rule}; use from_values to normalize")


class TrendLine(_Record):
    """Linear trend value = intercept + slope * t, with t = 1 at the first observation."""

    intercept: float
    slope: float

    def __post_init__(self) -> None:
        _check_trend((self.intercept, self.slope))

    def value_at(self, t):
        """Trend value at position(s) t (1-based)."""
        return self.intercept + self.slope * np.asarray(t, dtype=float)


def _check_trend(coefficients) -> None:
    if not all(map(math.isfinite, coefficients)):
        raise NumericError("trend coefficients must be finite")


class AccuracyMetrics(_Record):
    """MAPE (percent), MAD (input units), MSD (input units squared)."""

    mape: float
    mad: float
    msd: float


class DecompositionResult(_Record):
    """One series' decomposition; `fitted` and `irregular` are read-only 1-D arrays, one value per month."""

    model: str
    indices: SeasonalIndices
    trend: TrendLine
    fitted: np.ndarray
    irregular: np.ndarray
    accuracy: AccuracyMetrics

    def __post_init__(self) -> None:
        for name in ("fitted", "irregular"):
            object.__setattr__(self, name, _read_only(getattr(self, name), 1, name))

    __eq__ = _records_equal


class PanelDecomposition(_Record, eq=False):
    """Every column of a panel decomposed in one pass, as read-only arrays with one column per series.

    `indices` is (12, k), `trend` (2, k): intercepts, slopes, and `accuracy`
    (3, k): MAPE, MAD, MSD, NaN where undefined; `data` is the decomposed
    (months x columns) matrix, its first row at `start`. `fitted` and
    `irregular`, of the shape of `data`, are worked out from these on each
    access. `results` builds the per-column records.
    """

    model: str
    indices: np.ndarray
    trend: np.ndarray
    accuracy: np.ndarray
    data: np.ndarray
    start: MonthStamp

    def __post_init__(self) -> None:
        _check_model(self.model)
        for name in ("indices", "trend", "accuracy", "data"):
            object.__setattr__(self, name, _read_only(getattr(self, name), 2, name))

    @property
    def fitted(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            seasonal = self.indices.T[:, self.start.calendar_slots(len(self.data)).nonzero()[1]]
            fitted = _fitted_rows(self.model, self.trend, seasonal)
        fitted.flags.writeable = False
        return fitted.T

    irregular = property(lambda self: self._irregular(self.fitted))

    def _irregular(self, fitted: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            irregular = _TAKE_OFF[self.model](self.data, fitted)
        irregular.flags.writeable = False
        return irregular

    @property
    def results(self) -> tuple[DecompositionResult, ...]:
        fitted = self.fitted
        irregular = self._irregular(fitted)
        columns = zip(self.indices.T.tolist(), self.trend.T.tolist(), self.accuracy.T.tolist())
        return tuple(
            DecompositionResult(self.model, SeasonalIndices(self.model, tuple(indices)), TrendLine(*trend),
                                fitted[:, j], irregular[:, j], AccuracyMetrics(*accuracy))
            for j, (indices, trend, accuracy) in enumerate(columns)
        )


def _fitted_rows(model: str, trend: np.ndarray, seasonal: np.ndarray) -> np.ndarray:
    """Trend values at t = 1..N times (or plus) the (rows, N) `seasonal`, for the (2, rows) intercepts and slopes."""
    intercepts, slopes = trend[:, :, None]
    values = np.multiply(slopes, np.arange(1.0, seasonal.shape[-1] + 1))
    values += intercepts
    return _PUT_ON[model](values, seasonal, out=values)


def _moving_average(x: np.ndarray) -> np.ndarray:
    """Centered 2x12 moving averages along the last axis, one per window that fits (n - 12 of them).

    Each window is the sum of 13 shifted slices of x / 12, the two end ones
    half-weighted; dividing first keeps the sum finite for any finite x.
    """
    twelfths = x / 12.0
    m = x.shape[-1] - 12
    ma = twelfths[..., 1:1 + m].copy()
    for shift in range(2, 12):
        ma += twelfths[..., shift:shift + m]
    ends = twelfths[..., :m] + twelfths[..., 12:]
    ma += np.multiply(0.5, ends, out=ends)
    return ma


def centered_ma(values: Sequence[float]) -> np.ndarray:
    """Centered 2x12 moving average.

    The window spans 13 observations with the two endpoints half-weighted;
    the result is NaN for the first and last 6 positions.
    """
    x = np.asarray(values, dtype=float)
    _require_finite(x, "moving-average input")
    if x.size < 13:
        raise DataError(f"series too short for centered MA: {x.size} < 13")
    out = np.full(x.size, np.nan)
    out[6:x.size - 6] = _moving_average(x)
    return out


def _raw_seasonals(x: np.ndarray, start: MonthStamp | None, model: str, aggregator: str) -> np.ndarray:
    """Per-calendar-month aggregates, (k, 12), of the ratios (or differences) to the centered MA of each row of x.

    The rows of the (k, n) matrix x share the start month `start`. Each row's
    raw seasonals are laid out on a calendar grid, NaN where the MA is
    undefined, with a row of years per calendar month, so one sort (or one
    NaN-skipping mean) along the last axis aggregates every month of every row.
    The grid is filled one block of rows at a time.
    """
    _check_model(model)
    _check_aggregator(aggregator)
    k, n = x.shape
    if n < 24:
        raise DataError(f"need at least 24 observations, got {n}")
    if start is None:
        raise DataError("a start month is required to group by calendar month")
    slots = start.calendar_slots(n)
    grid = np.full((k, 12, len(slots)), np.nan)  # (k, 12, years)
    for rows, block in _row_blocks(x):
        raws = np.full(block.shape, np.nan)
        _TAKE_OFF[model](block[:, 6:n - 6], _moving_average(block), out=raws[:, 6:n - 6])
        grid[rows].transpose(0, 2, 1)[:, slots] = raws
    if aggregator == MEAN:  # a month with no raw seasonal gets NaN, and no warning as np.nanmean gives
        counts = np.count_nonzero(~np.isnan(grid), axis=-1)
        sums = np.nansum(grid, axis=-1)
        means = sums / counts
        overflow = ~np.isfinite(sums)
        if overflow.any():  # these months' raw seasonals are summed `_unit_scale`d
            scaled, exponents = _unit_scale(np.where(np.isnan(grid[overflow]), 0.0, grid[overflow]), -1)
            means[overflow] = np.ldexp(scaled.sum(axis=-1) / counts[overflow], exponents[:, 0])
        return means
    grid.sort(axis=-1)  # NaN sorts last
    counts = np.count_nonzero(~np.isnan(grid), axis=-1)[..., None]
    low = np.take_along_axis(grid, (counts - 1) // 2, axis=-1)
    high = np.take_along_axis(grid, counts // 2, axis=-1)
    middles = (low + high) / 2.0
    if not np.isfinite(middles).all():  # a middle pair whose sum overflows is halved first
        middles = np.where(np.isfinite(middles), middles, low / 2.0 + high / 2.0)
    return np.where(counts % 2 == 1, low, middles)[..., 0]


def _check_positive(values: np.ndarray, start: MonthStamp) -> None:
    """Raise DataError at the first month of the first row of a (k, n) matrix that holds a value <= 0."""
    nonpositive = np.argwhere(values <= 0.0)  # row-major: rows first, then months
    if nonpositive.size:
        bad = tuple(nonpositive[0].tolist())
        raise DataError(f"multiplicative model requires positive values; got {values[bad]} at {start.shift(bad[1])}")


def seasonal_indices(
    values: Sequence[float],
    start: MonthStamp | None,
    model: str = MULTIPLICATIVE,
    aggregator: str = MEDIAN,
) -> SeasonalIndices:
    """Normalized seasonal indices from ratios (or differences) to the centered MA; `start` is the first value's stamp.

    They are `decompose(values, start, model, aggregator).indices`, so they
    cost a full decomposition and raise whatever it raises.
    """
    return decompose(np.asarray(values, dtype=float), start, model, aggregator).indices


def _fit_trend_rows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intercepts and slopes of the least-squares lines of the rows of y on t = 1..N; infinite where one overflows."""
    y, exponents = _unit_scale(y, -1)
    t = np.arange(1, y.shape[-1] + 1, dtype=float)
    t_dev = t - t.mean()
    y_mean = y.mean(axis=-1)
    y -= y_mean[:, None]  # the residuals, centred and weighted in place
    y *= t_dev
    slope = y.sum(axis=-1) / (t_dev @ t_dev)
    intercept = y_mean - slope * t.mean()
    with np.errstate(over="ignore"):
        return np.ldexp(intercept, exponents[:, 0]), np.ldexp(slope, exponents[:, 0])


def fit_trend(values: Sequence[float]) -> TrendLine:
    """Ordinary least squares of the values on t = 1..N."""
    y = np.asarray(values, dtype=float)
    _require_finite(y, "trend input")
    if y.size < 2:
        raise DataError(f"trend fit needs at least 2 observations, got {y.size}")
    intercept, slope = _fit_trend_rows(y[None, :])
    return TrendLine(float(intercept[0]), float(slope[0]))  # TrendLine rejects a coefficient that overflows


def _error_rows(actual: np.ndarray, fitted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MAPE, MAD and MSD along the last axis, NaN where one is undefined."""
    with np.errstate(all="ignore"):
        err = np.abs(actual - fitted)
        scratch = np.abs(actual)  # each metric's terms in turn
        mape = 100.0 * np.mean(np.divide(err, scratch, out=scratch), axis=-1)
        msd = np.mean(np.multiply(err, err, out=scratch), axis=-1)
        scaled, exponents = _unit_scale(err, -1, out=scratch)
        mad = np.ldexp(scaled.mean(axis=-1), exponents[..., 0])
    # a zero or subnormal actual value, squared errors that overflow, an error that overflows
    return tuple(np.where(np.isfinite(metric), metric, np.nan) for metric in (mape, mad, msd))


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
    metrics = AccuracyMetrics(*map(float, _error_rows(a, f)))
    if math.isnan(metrics.mape):
        raise NumericError("zero actual value or overflow: MAPE undefined")
    if math.isnan(metrics.msd):  # MAD is undefined only where an error is not finite, and then so is MSD
        raise NumericError("squared errors overflow: MSD undefined")
    return metrics


def _decompose_columns(data: np.ndarray, start: MonthStamp | None, model: str, aggregator: str) -> PanelDecomposition:
    """`decompose` of every column of an (n, k) matrix whose first row is at `start`, in one pass.

    The columns become the rows of a (k, n) matrix, and every statistic is
    reduced along its last axis, row by row, so a column gives the same bits
    alone or in a panel. Each stage checks its faults over all columns before
    the next stage's result is used, as `decompose` describes. The stages
    run over blocks of rows, so besides the calendar grid of the raw
    seasonals, no array is larger than a block.
    """
    x = np.asarray(data, dtype=float).T  # only read: it may be the caller's array
    k, n = x.shape
    with np.errstate(all="ignore"):  # each stage's faults are raised before the next stage is used
        raw = _raw_seasonals(x, start, model, aggregator)
        if model == MULTIPLICATIVE:
            _check_positive(x, start)
        indices = _normalize(model, raw)
        _check_normalized(model, indices)
        months = start.calendar_slots(n).nonzero()[1]  # the calendar month (column of `indices`) of each value
        trend = np.empty((2, k))  # intercepts, slopes
        for rows, block in _row_blocks(x):
            seasonal = indices[rows][:, months]
            deseasonalized = _TAKE_OFF[model](block, seasonal)
            _check_finite("deseasonalized value", deseasonalized, start,
                          lambda: {"value": block, "seasonal index": seasonal})
            trend[:, rows] = _fit_trend_rows(deseasonalized)
        _check_trend(trend.ravel().tolist())
        intercepts, slopes = trend[:, :, None]
        t = np.arange(1, n + 1, dtype=float)
        accuracy = np.empty((3, k))
        for rows, block in _row_blocks(x):
            seasonal = indices[rows][:, months]
            values = _fitted_rows(model, trend[:, rows], seasonal)
            _check_finite("fitted value", values, start,
                          lambda: {"trend": intercepts[rows] + slopes[rows] * t, "seasonal index": seasonal})
            accuracy[:, rows] = _error_rows(block, values)
    return PanelDecomposition(model, indices.T, trend, accuracy, data, start)


def decompose(
    data: PriceSeries | ReturnSeries | SeriesPanel | Sequence[float],
    start: MonthStamp | None = None,
    model: str = MULTIPLICATIVE,
    aggregator: str = MEDIAN,
) -> DecompositionResult | PanelDecomposition:
    """Run the full classical decomposition pipeline on one series, or on every column of a panel.

    Parameters
    ----------
    data : PriceSeries, ReturnSeries, SeriesPanel, or sequence of floats
        A plain sequence needs `start`, the stamp of its first value. Price
        data is normally decomposed multiplicatively; series that can be
        negative (returns) need the additive model. A panel gives a
        `PanelDecomposition` whose results equal those of its columns
        decomposed one at a time.

    Faults are checked once per stage, over all columns, in pipeline order:
    positive values, seasonal indices with a positive mean, then finite
    deseasonalized values, trend coefficients and fitted values. The first
    faulty stage raises for the first column with that fault, at its first
    faulty month; a single series is the one-column case.
    """
    if isinstance(data, SeriesPanel):
        return _decompose_columns(data.prices, data.start, model, aggregator)
    values, start = _coerce(data, start)
    return _decompose_columns(values[:, None], start, model, aggregator).results[0]


def _check_finite(name: str, component: np.ndarray, start: MonthStamp, inputs: Callable[[], dict]) -> None:
    """Raise NumericError at the first month of the first (k, n) row that is not finite, naming `inputs()` there."""
    unusable = np.argwhere(~np.isfinite(component))  # row-major: rows first, then months
    if unusable.size:
        bad = tuple(unusable[0].tolist())
        causes = ", ".join(f"{label} {float(array[bad])!r}" for label, array in inputs().items())
        raise NumericError(f"{name} at {start.shift(bad[1])} is not finite: {causes}")


def seasonal_deviation_percent(indices: SeasonalIndices) -> tuple[float, ...]:
    """Per-month percent deviation from the trend implied by seasonal indices.

    Multiplicative indices map to (value - 1) * 100, and one past the
    largest double raises NumericError. Additive offsets are returned in
    input units.
    """
    with np.errstate(over="ignore"):  # an overflow raises below
        deviations = _deviation_percent(indices.model, np.array(indices.values))
    if not np.isfinite(deviations).all():
        raise NumericError(f"a seasonal deviation overflows: indices {list(indices.values)}")
    return tuple(deviations.tolist())


def _deviation_percent(model: str, indices: np.ndarray) -> np.ndarray:
    """`seasonal_deviation_percent` of an array of indices."""
    return (indices - 1.0) * 100.0 if model == MULTIPLICATIVE else indices


def _coerce(
    data: PriceSeries | ReturnSeries | Sequence[float],
    start: MonthStamp | None,
) -> tuple[np.ndarray, MonthStamp | None]:
    if isinstance(data, (PriceSeries, ReturnSeries)):
        return data.data, data.start
    return np.asarray(data, dtype=float), start
