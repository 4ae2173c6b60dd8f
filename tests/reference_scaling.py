"""The power-of-two scaled sums written out once per kernel, the bitwise oracle for their shared helper.

Each function is the formula as `goldseason.stats` and `goldseason.decompose`
wrote it before the scaling moved into one helper: `_mean_ttests` centres
the unscaled values, `_normalize` and `_pearson_r` scale by the largest
magnitude of `np.abs`, and `_check_normalized` adds the indices with
Python's `sum`. On finite input whose sums do not overflow here, the
package must give the same bits, and the same verdict away from the index
check's tolerance.
"""

import numpy as np

from goldseason.decompose import ADDITIVE, MULTIPLICATIVE
from goldseason.errors import DataError, NumericError


def mean_ttests(values: np.ndarray, present: np.ndarray):
    counts = present.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, exponents = np.frexp(np.abs(values).max(axis=-2))
        means = np.ldexp(np.ldexp(values, -exponents[..., None, :]).sum(axis=-2) / counts, exponents)
        deviations = np.where(present, values - means[..., None, :], 0.0)
        _, exponents = np.frexp(np.abs(deviations).max(axis=-2))
        deviations = np.ldexp(deviations, -exponents[..., None, :])
        squares = np.square(deviations).sum(axis=-2)
        spreads = np.sqrt(squares / (counts - 1))
        t_stats = np.ldexp(means, -exponents) / (spreads / np.sqrt(counts))
    return means, counts, np.where((counts >= 2) & (spreads != 0.0), t_stats, np.nan)


def pearson_r(data: np.ndarray) -> np.ndarray:
    n, k = data.shape
    if n < 3:
        raise DataError(f"correlation needs at least 3 pairs, got {n}")
    deviations = np.ldexp(data, -np.frexp(np.abs(data).max(axis=0))[1])
    deviations -= deviations.mean(axis=0)
    deviations = np.ldexp(deviations, -np.frexp(np.abs(deviations).max(axis=0))[1])
    products = deviations.T @ deviations
    sums_of_squares = products.diagonal()
    if (sums_of_squares == 0.0).any():
        raise NumericError("constant input: correlation undefined")
    upper = np.triu_indices(k, 1)
    r = products[upper] / np.sqrt(sums_of_squares[upper[0]] * sums_of_squares[upper[1]])
    return np.clip(r, -1.0, 1.0)


def normalize(model: str, raw: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        _, exponents = np.frexp(np.abs(raw).max(axis=-1, keepdims=True))
        means = np.ldexp(np.ldexp(raw, -exponents).mean(axis=-1, keepdims=True), exponents)
        normalized = raw / means if model == MULTIPLICATIVE else raw - means
    if model == MULTIPLICATIVE and (means <= 0.0).any():
        raise DataError("multiplicative indices must have a positive mean")
    return normalized


def check_normalized(model: str, rows) -> None:
    for values in rows:
        scale = max(1.0, max(map(abs, values)))
        if model == MULTIPLICATIVE and abs(sum(values) / 12 - 1.0) > 1e-12 * scale:
            raise DataError("multiplicative indices must average 1; use from_values to normalize")
        if model == ADDITIVE and abs(sum(values)) > 1e-12 * scale * 12:
            raise DataError("additive indices must sum to 0; use from_values to normalize")
