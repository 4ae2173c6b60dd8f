"""The panel decomposition kernel written one stage per temporary, the bitwise oracle for `goldseason.decompose`.

`reference_decompose_columns` runs the same ufuncs in the same order as
`goldseason.decompose._decompose_columns`, with every intermediate in an
array of its own, over all rows at once. The package's kernel may reuse
buffers, write in place and work in blocks of rows, but each reduction must
see the same memory layout along its axis, so it must give the same bits
and raise the same error for any panel.
"""

from types import SimpleNamespace

import numpy as np

from goldseason.decompose import (
    MEAN,
    MULTIPLICATIVE,
    _check_aggregator,
    _check_model,
    _check_normalized,
    _check_positive,
    _check_trend,
    _normalize,
)
from goldseason.errors import DataError, NumericError


def _moving_average(x: np.ndarray) -> np.ndarray:
    twelfths = x / 12.0
    m = x.shape[-1] - 12
    ma = twelfths[..., 1:1 + m].copy()
    for shift in range(2, 12):
        ma += twelfths[..., shift:shift + m]
    ma += 0.5 * (twelfths[..., :m] + twelfths[..., 12:])
    return ma


def _raw_seasonals(x: np.ndarray, start, model: str, aggregator: str) -> np.ndarray:
    _check_model(model)
    _check_aggregator(aggregator)
    k, n = x.shape
    if n < 24:
        raise DataError(f"need at least 24 observations, got {n}")
    if start is None:
        raise DataError("a start month is required to group by calendar month")
    raws = np.full(x.shape, np.nan)
    middle = x[:, 6:n - 6]
    ma = _moving_average(x)
    raws[:, 6:n - 6] = middle / ma if model == MULTIPLICATIVE else middle - ma
    slots = start.calendar_slots(n)
    grid = np.full((k,) + slots.shape, np.nan)
    grid[:, slots] = raws
    grid = np.ascontiguousarray(grid.transpose(0, 2, 1))  # (k, 12, years)
    if aggregator == MEAN:
        return np.nansum(grid, axis=-1) / np.count_nonzero(~np.isnan(grid), axis=-1)
    grid.sort(axis=-1)
    counts = np.count_nonzero(~np.isnan(grid), axis=-1)[..., None]
    low = np.take_along_axis(grid, (counts - 1) // 2, axis=-1)
    high = np.take_along_axis(grid, counts // 2, axis=-1)
    return np.where(counts % 2 == 1, low, (low + high) / 2.0)[..., 0]


def _fit_trend_rows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = y.shape[-1]
    _, exponent = np.frexp(np.abs(y).max(axis=-1))
    y = np.ldexp(y, -exponent[:, None])
    t = np.arange(1, n + 1, dtype=float)
    t_dev = t - t.mean()
    y_mean = y.mean(axis=-1)
    slope = (t_dev * (y - y_mean[:, None])).sum(axis=-1) / (t_dev @ t_dev)
    intercept = y_mean - slope * t.mean()
    with np.errstate(over="ignore"):
        return np.ldexp(intercept, exponent), np.ldexp(slope, exponent)


def _error_rows(actual: np.ndarray, fitted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with np.errstate(all="ignore"):
        err = np.abs(actual - fitted)
        mape = 100.0 * np.mean(err / np.abs(actual), axis=-1)
        msd = np.mean(err * err, axis=-1)
        _, exponent = np.frexp(err.max(axis=-1))
        mad = np.ldexp(np.mean(np.ldexp(err, -exponent[..., None]), axis=-1), exponent)
    return tuple(np.where(np.isfinite(metric), metric, np.nan) for metric in (mape, mad, msd))


def _check_finite(name: str, component: np.ndarray, start, inputs: dict[str, np.ndarray]) -> None:
    unusable = np.argwhere(~np.isfinite(component))
    if unusable.size:
        bad = tuple(unusable[0].tolist())
        causes = ", ".join(f"{label} {float(array[bad])!r}" for label, array in inputs.items())
        raise NumericError(f"{name} at {start.shift(bad[1])} is not finite: {causes}")


def reference_decompose_columns(data: np.ndarray, start, model: str, aggregator: str) -> SimpleNamespace:
    """The arrays of `decompose` of every column of an (n, k) matrix whose first row is at `start`.

    `fitted` and `irregular` are stored, where `PanelDecomposition` works them out on access.
    """
    x = np.ascontiguousarray(np.asarray(data, dtype=float).T)
    n = x.shape[1]
    with np.errstate(all="ignore"):
        raw = _raw_seasonals(x, start, model, aggregator)
        if model == MULTIPLICATIVE:
            _check_positive(x, start)
        indices = _normalize(model, raw)
        _check_normalized(model, indices.tolist())
        slots = start.calendar_slots(n)
        per_point = np.broadcast_to(indices[:, None, :], indices.shape[:1] + slots.shape)[:, slots]
        deseasonalized = x / per_point if model == MULTIPLICATIVE else x - per_point
        _check_finite("deseasonalized value", deseasonalized, start, {"value": x, "seasonal index": per_point})
        trend = np.stack(_fit_trend_rows(deseasonalized))
        _check_trend(trend.ravel().tolist())
        intercepts, slopes = trend
        trend_values = intercepts[:, None] + slopes[:, None] * np.arange(1, n + 1, dtype=float)
        fitted = trend_values * per_point if model == MULTIPLICATIVE else trend_values + per_point
        _check_finite("fitted value", fitted, start, {"trend": trend_values, "seasonal index": per_point})
        irregular = x / fitted if model == MULTIPLICATIVE else x - fitted
    fitted.flags.writeable = irregular.flags.writeable = False
    return SimpleNamespace(indices=indices.T, trend=trend, accuracy=np.stack(_error_rows(x, fitted)), fitted=fitted.T,
                           irregular=irregular.T)
