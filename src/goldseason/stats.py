"""Per-calendar-month mean returns with t-tests, and correlation matrices.

Significance testing conventions used throughout:

* A month's mean return is tested against zero with a two-sided one-sample
  Student t-test: t = (mean - mu0) / (s / sqrt(n)) with s the sample
  standard deviation (n-1 denominator) and df = n - 1.
* A Pearson correlation r over n pairs is tested with the transform
  t = r * sqrt((n - 2) / (1 - r^2)) with df = n - 2; |r| = 1 is assigned
  p = 0 by convention.
* Two-sided tail probabilities are the regularized incomplete beta
  function p = I_y(df/2, 1/2) with y = df/(df+t^2), from the continued
  fraction of Numerical Recipes (Press et al.) section 6.4, evaluated with
  the modified Lentz method in numpy. Where y >= (a+1)/(a+b+2) the
  fraction converges slowly, and p is taken as 1 - I_x(1/2, df/2) with
  x = t^2/(df+t^2). The relative error is at most 1e-9 wherever
  p >= 1e-300 (df in 1..5000, |t| in [1e-12, 1e3], against 50-digit
  mpmath in the test suite).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericError
from .series import (_BLOCK, MonthStamp, ReturnSeries, SeriesPanel, _ratio_returns, _read_only, _Record,
                     _require_finite, _row_blocks, _unit_scale)

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


class MeanReturnStat(_Record):
    """Mean of one return bucket plus its test against a zero mean."""

    mean: float
    n: int
    t_stat: float
    p_value: float
    significant: bool


class MonthlyReturnSummary(_Record):
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


_CF_TOLERANCE = 1e-13  # a step that moves the continued fraction by less than this ends it
_CF_STEPS = 1024  # steps an element may take before it counts as not converging
_CF_CHUNK = 32  # steps whose coefficients are gathered in one go, if `_BLOCK` allows
_CF_CHECK = 4  # steps between convergence checks
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # lgamma(1/2)


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)).

    Above a = 30 the difference of two lgamma values of size a log a would
    lose digits, so the ratio comes from its asymptotic series, which is
    exact to a few ulps there.
    """
    if a < 30.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1.0 / 8.0 - r * (1.0 / 192.0 - r * (1.0 / 640.0 - r * 17.0 / 14336.0))) / a


def _fraction_coefficients(a: np.ndarray, b: np.ndarray, first: int, steps: int):
    """Numerators and denominator slopes of steps first..first + steps - 1 of the continued fraction for I_z(a, b).

    Numerical Recipes writes I_z(a, b) = front / (a (1 + d1/(1 + d2/(1 + ...))))
    with d_j = c_j z. Its odd part takes the terms in pairs: step k has
    numerator -d_{2k-1} d_{2k} = numerator * z^2 and denominator
    1 + d_{2k} + d_{2k+1} = 1 + slope * z. Rows are steps, columns (a, b) pairs.
    """
    k = np.arange(first - 1, first + steps, dtype=float)[:, None]
    c_odd = -(a + k) * (a + b + k) / ((a + 2.0 * k) * (a + 2.0 * k + 1.0))  # c_{2k+1}
    k = k[1:]
    c_even = k * (b - k) / ((a + 2.0 * k - 1.0) * (a + 2.0 * k))
    return -c_odd[:-1] * c_even, c_even + c_odd[1:]


def _continued_fraction(a: np.ndarray, b: np.ndarray, pair: np.ndarray, z: np.ndarray) -> np.ndarray:
    """1 + d1/(1 + d2/(1 + ...)) for I_z(a[pair], b[pair]), by the modified Lentz method.

    Lentz's C and E = 1/D follow one recurrence, X = denominator + numerator / X,
    and each step multiplies the value by C/E. Every `_CF_CHECK` steps, an
    element whose last step moved it by less than the tolerance stops, and
    its value is fixed then, whatever the other elements still do. The
    coefficients of a run of steps are gathered in one go: the largest power
    of two from `_CF_CHECK` to `_CF_CHUNK` steps whose block fits `_BLOCK`.
    """
    steps = _CF_CHUNK
    while steps > _CF_CHECK and steps * z.size > _BLOCK:
        steps //= 2
    z2 = z * z
    value = 1.0 - ((a + b) / (a + 1.0))[pair] * z  # 1 + d1
    c, e = value, np.full_like(z, np.inf)  # E = 1/D, and D = 0 before the first step
    result = np.empty_like(z)
    live = np.ones(z.size, dtype=bool)  # stopped elements step on; their results are written
    for first in range(1, _CF_STEPS + 1, steps):
        numerator, slope = _fraction_coefficients(a, b, first, steps)
        numerator = numerator[:, pair] * z2
        denominator = 1.0 + slope[:, pair] * z
        for step in range(steps):
            c = denominator[step] + numerator[step] / c
            e = denominator[step] + numerator[step] / e
            delta = c / e
            value = value * delta
            if step % _CF_CHECK != _CF_CHECK - 1:
                continue
            stopped = (np.abs(delta - 1.0) < _CF_TOLERANCE) & live
            result[stopped] = value[stopped]
            live &= ~stopped
            if not live.any():
                return result
    raise NumericError(f"t-test p-value did not converge in {_CF_STEPS} steps")


def _two_sided_p(t_stat, df):
    """Two-sided Student-t tail probabilities, elementwise over arrays of t and df.

    p = I_y(df/2, 1/2), or 1 - I_x(1/2, df/2) where y >= (a+1)/(a+b+2),
    as the module docstring describes. y = df/(df+t^2) and x = t^2/(df+t^2)
    are each formed from t^2 and df, never as 1 minus the other, and the
    prefactor y^a x^b / B(a, b) is taken in log space with one log-gamma
    ratio per distinct df. NaN t gives NaN, |t| = inf gives 0, t = 0 gives 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # t^2 overflows or is inf: y is 0
        t2, df = np.broadcast_arrays(np.square(t_stat, dtype=float), np.asarray(df, dtype=float))
        y = df / (df + t2)
        x = t2 / (df + t2)
    p = np.where(np.isnan(y), np.nan, np.where(y > 0.0, 1.0, 0.0))
    regular = (x > 0.0) & (y > 0.0)
    if not regular.any():
        return p
    y, x, df = y[regular], x[regular], df[regular]
    a = df / 2.0
    complement = y >= (a + 1.0) / (a + 2.5)
    # one fraction (a, b) per distinct df and branch; complements get negative keys
    keys, pair = np.unique(np.where(complement, -df, df), return_inverse=True)
    halves = np.abs(keys) / 2.0
    log_norm = np.array([_log_gamma_ratio(h) for h in halves.tolist()]) - _LOG_SQRT_PI
    log_y = np.log(y)
    near_one = x < 0.5
    log_y[near_one] = np.log1p(-x[near_one])
    front = np.exp(log_norm[pair] + a * log_y + 0.5 * np.log(x)) / np.where(complement, 0.5, a)
    tail = np.zeros_like(front)
    needed = front > 0.0  # where the prefactor underflows, the tail is 0 whatever the fraction
    if needed.any():
        tail[needed] = front[needed] / _continued_fraction(
            np.where(keys < 0, 0.5, halves), np.where(keys < 0, halves, 0.5), pair[needed],
            np.where(complement, x, y)[needed],
        )
    p[regular] = np.where(complement, 1.0 - tail, tail)
    return p


def _mean_ttests(values: np.ndarray, present: np.ndarray):
    """Means, counts and t statistics of t-tests against zero, per series and bucket.

    `values` is (k, m, buckets), one (m, buckets) block per series, and
    zero in the slots where the (m, buckets) mask `present` is False;
    results are (k, buckets) arrays, counts one per bucket. t is NaN where
    a bucket has fewer than 2 values or zero variance. Every bucket is
    reduced along axis -2 on its own, so a series gives the same bits alone
    or in a panel. Values, then deviations, are `_unit_scale`d per bucket, which
    changes no mean or t but keeps every sum finite for any finite value.
    """
    counts = present.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # undefined buckets are masked below
        deviations, exponents = _unit_scale(values, -2)
        means = deviations.sum(axis=-2, keepdims=True) / counts  # scaled like the values
        deviations -= means
        np.copyto(deviations, 0.0, where=~present)
        _, spread_exponents = _unit_scale(deviations, -2, out=deviations)
        squares = np.square(deviations, out=deviations).sum(axis=-2)
        spreads = np.sqrt(squares / (counts - 1))  # standard deviations scaled like the deviations
        t_stats = np.ldexp(means, -spread_exponents)[..., 0, :] / (spreads / np.sqrt(counts))
    return np.ldexp(means, exponents)[..., 0, :], counts, np.where((counts >= 2) & (spreads != 0.0), t_stats, np.nan)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")


def one_sample_ttest(sample: Sequence[float], mu0: float = 0.0) -> TTestResult:
    """Two-sided one-sample Student t-test of the mean against mu0.

    Returns (t_stat, df, p_value). Raises DataError for a non-finite value
    or mu0 and NumericError for samples with fewer than two observations or
    with zero variance ("constant sample"). The sample and mu0 are scaled
    by one power of two before mu0 is subtracted, so no difference overflows.
    """
    sample = np.asarray(sample, dtype=float)
    _require_finite(sample, "t-test sample")
    if not math.isfinite(mu0):
        raise DataError(f"mu0 must be finite, got {mu0}")
    if sample.size < 2:
        raise NumericError(f"t-test needs at least 2 observations, got {sample.size}")
    scaled, _ = _unit_scale(np.append(sample, mu0), 0)
    x = scaled[:-1] - scaled[-1]
    t_stat = _mean_ttests(x[None, :, None], np.ones((x.size, 1), dtype=bool))[2][0, 0]
    if np.isnan(t_stat):
        raise NumericError("constant sample: zero variance, t-test undefined")
    return TTestResult(float(t_stat), x.size - 1, float(_two_sided_p(t_stat, x.size - 1)))


def _pearson_r(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pearson correlations of the columns of an (n, k) matrix, as a symmetric k x k matrix with a unit diagonal.

    Columns are `_unit_scale`d before they are centered, and again after, which
    changes no r but keeps every sum finite for values up to the largest double.
    The deviations are formed in `out`, which may be `data` itself, else in a new array.
    """
    n = data.shape[0]
    if n < 3:
        raise DataError(f"correlation needs at least 3 pairs, got {n}")
    deviations, _ = _unit_scale(data, 0, out=out)
    deviations -= deviations.mean(axis=0)
    _unit_scale(deviations, 0, out=deviations)
    r = deviations.T @ deviations  # exactly symmetric: numpy forms one triangle of a.T @ a (BLAS syrk) and mirrors it
    sums_of_squares = r.diagonal().copy()
    if (sums_of_squares == 0.0).any():
        raise NumericError("constant input: correlation undefined")
    r /= np.sqrt(np.multiply.outer(sums_of_squares, sums_of_squares))
    np.fill_diagonal(r, 1.0)
    return np.clip(r, -1.0, 1.0, out=r)


def _correlation_t_p(r, n: int):
    """t statistics and two-sided p-values of correlations r over n pairs; |r| = 1 gives t = +-inf and p = 0."""
    df = n - 2
    with np.errstate(divide="ignore"):  # |r| = 1
        t_stats = r * np.sqrt(df / (1.0 - r * r))
    return t_stats, _two_sided_p(t_stats, df)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation of two equal-length sequences of finite values."""
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.size != ay.size:
        raise DataError(f"length mismatch: {ax.size} vs {ay.size}")
    _require_finite(np.concatenate((ax, ay)), "correlation input")
    return float(_pearson_r(np.column_stack((ax, ay)))[0, 1])


def correlation_significance(r: float, n: int, alpha: float = 0.05) -> CorrelationTest:
    """Test a correlation against zero via the t transform with df = n - 2."""
    if not math.isfinite(r):
        raise DataError(f"correlation {r} is not finite")
    _check_alpha(alpha)
    if abs(r) > 1.0 + 1e-12:
        raise DataError(f"correlation {r} outside [-1, 1]")
    if n < 3:
        raise DataError(f"significance test needs n >= 3, got {n}")
    if n > 2 ** 53:  # past the counts a double holds exactly; an int past the largest double would not convert
        raise DataError(f"significance test needs n <= 2**53, got {n}")
    t_stat, p = _correlation_t_p(np.clip(r, -1.0, 1.0), n)
    return CorrelationTest(float(t_stat), float(p), bool(p < alpha))


class MonthlyTests(_Record, eq=False):
    """t-tests of the mean returns of k columns as (13, k) arrays: row m - 1 is calendar month m, row 12 all months.

    `counts` holds the 13 observation counts every column shares. Every array is read-only.
    """

    alpha: float
    means: np.ndarray
    counts: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _read_only(self.counts, 1, "counts", int))
        for name in ("means", "t_stats", "p_values"):
            object.__setattr__(self, name, _read_only(getattr(self, name), 2, name))

    def summaries(self, currencies: Sequence[str]) -> tuple[MonthlyReturnSummary, ...]:
        """One `MonthlyReturnSummary` per column, labelled with `currencies`."""
        sizes = self.counts.tolist()
        summaries = []
        columns = zip(currencies, self.means.T.tolist(), self.t_stats.T.tolist(), self.p_values.T.tolist())
        for code, means, t_stats, p_values in columns:
            records = [MeanReturnStat(mean, size, t_stat, p, p < self.alpha)
                       for mean, size, t_stat, p in zip(means, sizes, t_stats, p_values)]
            summaries.append(MonthlyReturnSummary(code, self.alpha, tuple(records[:12]), records[12]))
        return tuple(summaries)


def monthly_tests(returns: np.ndarray, start: MonthStamp, alpha: float) -> MonthlyTests:
    """The calendar-month t-tests of every column of an (n, k) returns matrix whose first row is at `start`.

    The twelve months, the columns of a calendar grid, and the overall record
    are tested a block of columns at a time, each column reduced on its own,
    and the p-values of all columns in one pass. A fault is reported for the first
    bucket, calendar months 1..12 then the overall record, whose test is
    undefined in any column. Of a panel, `panel.returns()` raises first, for the
    first currency with a return that is not finite, at its first such month,
    so faults are checked stage by stage over all currencies, as for one series.
    """
    _check_alpha(alpha)
    _require_finite(returns, "returns")
    n, k = returns.shape
    slots = start.calendar_slots(n)
    means, t_stats = np.empty((k, 13)), np.empty((k, 13))
    counts = np.append(slots.sum(axis=0), n)  # the observations of each calendar month, then of all months
    for rows, block in _row_blocks(returns.T):  # the overall record from the block's rows, the months from a grid
        overall = _mean_ttests(block[:, :, None], np.ones((n, 1), bool))
        grid = np.zeros((len(block),) + slots.shape)
        grid[:, slots] = block
        means[rows], _, t_stats[rows] = (np.concatenate(pair, axis=-1) for pair in
                                         zip(_mean_ttests(grid, slots), overall))
    p_values = _two_sided_p(t_stats, counts - 1)
    undefined = np.isnan(p_values)
    if undefined.any():
        bucket = int(np.argmax(undefined.any(axis=0)))
        where = f"calendar month {bucket + 1}" if bucket < 12 else "all months"
        if counts[bucket] < 2:
            raise DataError(f"{where} has {counts[bucket]} observation(s); at least 2 required")
        raise NumericError(f"{where}: constant sample: zero variance, t-test undefined")
    return MonthlyTests(alpha, means.T, counts, t_stats.T, p_values.T)


def monthly_mean_returns(returns: ReturnSeries, alpha: float = 0.05) -> MonthlyReturnSummary:
    """Group a return series by calendar month and test each mean against zero.

    Every calendar month must appear at least twice (the t-test needs
    n >= 2), or DataError names the month; a value that is not finite
    raises DataError too. The overall record covers all observations.
    """
    return monthly_tests(returns.values()[:, None], returns.start, alpha).summaries((returns.currency,))[0]


class CorrelationMatrix(_Record, eq=False):
    """Symmetric pairwise Pearson matrix with per-cell p-values and significance flags.

    `values`, `p_values` and `significant` are read-only k x k arrays in
    label order. Construction checks only those shapes; `correlation_matrix`
    builds the symmetry, the unit diagonal and the [-1, 1] range.
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
            array = _read_only(getattr(self, name), 2, f"correlation {name}", dtype)
            if array.shape != (k, k):
                raise DataError(f"correlation {name} is not a {k} x {k} matrix")
            object.__setattr__(self, name, array)

    def value(self, a: str, b: str) -> float:
        return float(self.values[self.labels.index(a), self.labels.index(b)])


def correlation_matrix(panel: SeriesPanel, basis: str = PRICES, alpha: float = 0.05) -> CorrelationMatrix:
    """Pairwise Pearson correlations of panel series on prices or returns.

    Prices are correlated as raw levels, without detrending; a price that is
    not finite raises DataError. The returns basis correlates the returns
    instead. Each pair is tested as in `correlation_significance`.
    """
    if basis not in (PRICES, RETURNS):
        raise DataError(f"basis must be {PRICES!r} or {RETURNS!r}, got {basis!r}")
    _check_alpha(alpha)
    if len(panel) < 2:
        raise DataError("correlation matrix needs at least 2 series")
    # the panel shares its prices, so they are copied as they are scaled; the returns are this call's own
    data = panel.prices if basis == PRICES else _ratio_returns(panel.prices, panel.currencies, panel.start)
    _require_finite(data, "correlation input")
    n = data.shape[0]
    values = _pearson_r(data, out=None if basis == PRICES else data)
    del data  # before the p-value pass
    p_values = np.empty_like(values)
    for rows, block in _row_blocks(values):
        p_values[rows] = _correlation_t_p(block, n)[1]
    significant = p_values < alpha
    for matrix in (values, p_values, significant):
        matrix.flags.writeable = False
    return CorrelationMatrix(
        labels=panel.currencies,
        values=values,
        p_values=p_values,
        significant=significant,
        n=n,
        basis=basis,
        alpha=alpha,
    )
