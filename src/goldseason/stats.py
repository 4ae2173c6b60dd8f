"""Per-calendar-month mean returns with t-tests, and correlation matrices.

Significance testing conventions used throughout:

* A month's mean return is tested against zero with a two-sided one-sample
  Student t-test: t = (mean - mu0) / (s / sqrt(n)) with s the sample
  standard deviation (n-1 denominator) and df = n - 1.
* A Pearson correlation r over n pairs is tested with the transform
  t = r * sqrt((n - 2) / (1 - r^2)) with df = n - 2; |r| = 1 is assigned
  p = 0 by convention.
* Two-sided tail probabilities come from the regularized incomplete beta
  function, p = I_{df/(df+t^2)}(df/2, 1/2) = 1 - I_{t^2/(df+t^2)}(1/2, df/2),
  evaluated in whichever form keeps its argument away from 1. The relative
  error is at most 1e-9 wherever p >= 1e-300 (df in 1..5000, |t| in
  [1e-12, 1e3], against 50-digit mpmath in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import DataError, NumericError
from .series import ReturnSeries, SeriesPanel

PRICES = "prices"
RETURNS = "returns"


class TTestResult(NamedTuple):
    t_stat: float
    df: int
    p_value: float


class CorrelationTest(NamedTuple):
    t_stat: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class MeanReturnStat:
    """Mean of one return bucket plus its test against a zero mean."""

    mean: float
    n: int
    t_stat: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class MonthlyReturnSummary:
    """Twelve calendar-month mean-return records plus an overall record."""

    currency: str
    alpha: float
    per_month: tuple[MeanReturnStat, ...]  # element i is calendar month i+1
    overall: MeanReturnStat

    def __post_init__(self) -> None:
        if len(self.per_month) != 12:
            raise DataError(f"per_month must have 12 records, got {len(self.per_month)}")
        if sum(rec.n for rec in self.per_month) != self.overall.n:
            raise DataError("per-month counts do not sum to the overall count")


def _two_sided_p(t_stat, df):
    """Two-sided Student-t tail probabilities, elementwise over arrays of t and df.

    p = I_y(df/2, 1/2) with y = df/(df+t^2). For small |t|, y rounds to a
    double near 1 and p loses its digits, so wherever x = t^2/(df+t^2) is
    at most 1/2 the same p is taken as the complement of I_x(1/2, df/2),
    which `betaincc` computes directly.
    """
    t2, df = np.broadcast_arrays(np.square(t_stat, dtype=float), np.asarray(df, dtype=float))
    p = np.asarray(special.betainc(df / 2.0, 0.5, df / (df + t2)))
    with np.errstate(invalid="ignore"):  # |t| = inf: x is NaN and p stays 0
        x = t2 / (df + t2)
    small = x <= 0.5
    p[small] = special.betaincc(0.5, df[small] / 2.0, x[small])
    return p


def _mean_ttests(values: np.ndarray, members: np.ndarray):
    """Means, counts, t statistics and two-sided p-values of t-tests against zero, one per bucket.

    `members[b, i]` says whether `values[i]` is in bucket b. p is NaN where
    a bucket has fewer than 2 values or zero variance.
    """
    counts = members.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # undefined buckets are masked below
        means = np.where(members, values, 0.0).sum(axis=1) / counts
        deviations = np.where(members, values - means[:, None], 0.0)
        sds = np.sqrt((deviations * deviations).sum(axis=1) / (counts - 1))
        t_stats = means / (sds / np.sqrt(counts))
    defined = (counts >= 2) & (sds != 0.0)
    p_values = np.full(counts.size, np.nan)
    p_values[defined] = _two_sided_p(t_stats[defined], counts[defined] - 1)
    return means, counts, t_stats, p_values


def one_sample_ttest(sample: Sequence[float], mu0: float = 0.0) -> TTestResult:
    """Two-sided one-sample Student t-test of the mean against mu0.

    Returns (t_stat, df, p_value). Raises NumericError for samples with
    fewer than two observations or with zero variance ("constant sample").
    """
    x = np.asarray(sample, dtype=float) - mu0
    if x.size < 2:
        raise NumericError(f"t-test needs at least 2 observations, got {x.size}")
    _, _, t_stats, p_values = _mean_ttests(x, np.ones((1, x.size), dtype=bool))
    if np.isnan(p_values[0]) and np.isfinite(x).all():
        raise NumericError("constant sample: zero variance, t-test undefined")
    return TTestResult(float(t_stats[0]), x.size - 1, float(p_values[0]))


def _pearson_r(data: np.ndarray) -> np.ndarray:
    """Pearson correlations of the columns of an (n, k) matrix, upper triangle in `triu_indices` order.

    Centered columns are scaled by powers of two, which changes no r but
    keeps the sums of squares finite for values up to the largest double.
    """
    n, k = data.shape
    if n < 3:
        raise DataError(f"correlation needs at least 3 pairs, got {n}")
    deviations = data - data.mean(axis=0)
    _, exponents = np.frexp(np.abs(deviations).max(axis=0))
    deviations = np.ldexp(deviations, -exponents)
    products = deviations.T @ deviations
    sums_of_squares = products.diagonal()
    if (sums_of_squares == 0.0).any():
        raise NumericError("constant input: correlation undefined")
    upper = np.triu_indices(k, 1)
    r = products[upper] / np.sqrt(sums_of_squares[upper[0]] * sums_of_squares[upper[1]])
    return np.clip(r, -1.0, 1.0)


def _correlation_t_p(r, n: int):
    """t statistics and two-sided p-values of correlations r over n pairs; |r| = 1 gives t = +-inf and p = 0."""
    df = n - 2
    with np.errstate(divide="ignore"):  # |r| = 1
        t_stats = r * np.sqrt(df / (1.0 - r * r))
    return t_stats, _two_sided_p(t_stats, df)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length sequences."""
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.size != ay.size:
        raise DataError(f"length mismatch: {ax.size} vs {ay.size}")
    return float(_pearson_r(np.column_stack((ax, ay)))[0])


def correlation_significance(r: float, n: int, alpha: float = 0.05) -> CorrelationTest:
    """Test a correlation against zero via the t transform with df = n - 2."""
    if abs(r) > 1.0 + 1e-12:
        raise DataError(f"correlation {r} outside [-1, 1]")
    if n < 3:
        raise DataError(f"significance test needs n >= 3, got {n}")
    t_stat, p = _correlation_t_p(np.clip(r, -1.0, 1.0), n)
    return CorrelationTest(float(t_stat), float(p), bool(p < alpha))


def monthly_mean_returns(returns: ReturnSeries, alpha: float = 0.05) -> MonthlyReturnSummary:
    """Group a return series by calendar month and test each mean against zero.

    Every calendar month must appear at least twice (the t-test needs
    n >= 2); violations raise DataError naming the month. The overall
    record covers all observations.
    """
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    values = returns.values()
    # one bucket per calendar month, then one of every value for the overall record
    in_month = returns.start.months_of_year(values.size) == np.arange(12)[:, None]
    means, counts, t_stats, p_values = _mean_ttests(values, np.vstack((in_month, np.ones(values.size, dtype=bool))))
    undefined = np.isnan(p_values)
    if undefined.any():
        bucket = int(np.argmax(undefined))
        where = f"calendar month {bucket + 1}" if bucket < 12 else "all months"
        if counts[bucket] < 2:
            raise DataError(f"{where} has {counts[bucket]} observation(s); at least 2 required")
        raise NumericError(f"{where}: constant sample: zero variance, t-test undefined")
    records = [
        MeanReturnStat(mean, count, t_stat, p, p < alpha)
        for mean, count, t_stat, p in zip(means.tolist(), counts.tolist(), t_stats.tolist(), p_values.tolist())
    ]
    return MonthlyReturnSummary(returns.currency, alpha, tuple(records[:12]), records[12])


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric pairwise Pearson matrix with per-cell p-values and significance flags.

    `values`, `p_values` and `significant` are read-only k x k arrays in
    label order.
    """

    labels: tuple[str, ...]
    values: np.ndarray
    p_values: np.ndarray
    significant: np.ndarray
    n: int
    basis: str
    alpha: float

    def __post_init__(self) -> None:
        k = len(self.labels)
        for name, dtype in (("values", float), ("p_values", float), ("significant", bool)):
            array = np.array(getattr(self, name), dtype=dtype)
            if array.shape != (k, k):
                raise DataError(f"correlation {name} is not a {k} x {k} matrix")
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        values = self.values
        not_unit = np.abs(values.diagonal() - 1.0) > 1e-12
        if not_unit.any():
            raise DataError(f"diagonal entry for {self.labels[int(np.argmax(not_unit))]} is not 1")
        outside = np.abs(values) > 1.0 + 1e-12
        if outside.any():
            raise DataError(f"correlation {values[outside][0]} outside [-1, 1]")
        if (np.abs(values - values.T) > 1e-12).any():
            raise DataError("correlation matrix is not symmetric")

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def correlation_matrix(panel: SeriesPanel, basis: str = PRICES, alpha: float = 0.05) -> CorrelationMatrix:
    """Pairwise Pearson correlations of panel series on prices or returns.

    Prices are correlated as raw levels, without detrending. The returns
    basis correlates the month-over-month return series instead. Each pair
    is tested as in `correlation_significance`.
    """
    if basis not in (PRICES, RETURNS):
        raise DataError(f"basis must be {PRICES!r} or {RETURNS!r}, got {basis!r}")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    if len(panel) < 2:
        raise DataError("correlation matrix needs at least 2 series")
    data = panel.prices if basis == PRICES else panel.returns()
    n, k = data.shape
    r = _pearson_r(data)
    _, p = _correlation_t_p(r, n)

    upper = np.triu_indices(k, 1)
    values = np.eye(k)
    p_values = np.zeros((k, k))
    for matrix, cells in ((values, r), (p_values, p)):
        matrix[upper] = cells
        matrix.T[upper] = cells
    return CorrelationMatrix(
        labels=panel.currencies,
        values=values,
        p_values=p_values,
        significant=p_values < alpha,
        n=n,
        basis=basis,
        alpha=alpha,
    )
