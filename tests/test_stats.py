import math

import numpy as np
import pytest
from scipy.integrate import quad

from goldseason import (
    DataError,
    MeanReturnStat,
    MonthlyReturnSummary,
    MonthStamp,
    NumericError,
    ReportConfig,
    SeriesPanel,
    analyze_panel,
    correlation_matrix,
    correlation_significance,
    monthly_mean_returns,
    one_sample_ttest,
    pearson,
)

from goldseason import stats
from goldseason.stats import CorrelationMatrix, _two_sided_p, monthly_tests

from conftest import make_returns, make_series


def t_density(x: float, df: int) -> float:
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def two_sided_p_by_quadrature(t: float, df: int) -> float:
    tail, _ = quad(t_density, abs(t), math.inf, args=(df,))
    return 2.0 * tail


class TestOneSampleTTest:
    def test_symmetric_sample_gives_zero_t(self):
        t, df, p = one_sample_ttest([-1.0, 1.0, -1.0, 1.0], 0.0)
        assert t == 0.0
        assert df == 3
        assert p == 1.0

    def test_one_to_five(self):
        t, df, p = one_sample_ttest([1, 2, 3, 4, 5], 0.0)
        assert t == pytest.approx(4.242640687119285, abs=1e-9)
        assert df == 4
        assert p == pytest.approx(0.0132, abs=5e-4)
        # independent route: numeric quadrature of the t density
        assert p == pytest.approx(two_sided_p_by_quadrature(t, df), abs=1e-9)

    @pytest.mark.parametrize(
        "df,t_crit,alpha",
        [(1, 12.706, 0.05), (1, 63.657, 0.01), (4, 2.776, 0.05), (4, 4.604, 0.01),
         (30, 2.042, 0.05), (30, 2.750, 0.01), (100, 1.984, 0.05), (100, 2.626, 0.01)],
    )
    def test_against_published_critical_values(self, df, t_crit, alpha):
        # sample engineered to produce exactly the tabulated t statistic
        n = df + 1
        x = np.zeros(n)
        x[0], x[1] = 1.0, -1.0
        s = x.std(ddof=1)
        shift = t_crit * s / math.sqrt(n)
        t, got_df, p = one_sample_ttest(x + shift, 0.0)
        assert got_df == df
        assert t == pytest.approx(t_crit, rel=1e-12)
        assert p == pytest.approx(alpha, abs=5e-4)

    def test_nonzero_mu0(self):
        t, _, _ = one_sample_ttest([1, 2, 3, 4, 5], 3.0)
        assert t == 0.0

    def test_constant_sample(self):
        with pytest.raises(NumericError, match="constant sample"):
            one_sample_ttest([2.0, 2.0, 2.0], 0.0)

    def test_too_small(self):
        with pytest.raises(NumericError, match="at least 2"):
            one_sample_ttest([1.0], 0.0)

    def test_non_finite_value_is_data_error(self):
        with pytest.raises(DataError, match="t-test sample holds a non-finite value"):
            one_sample_ttest([1.0, math.nan, 2.0])

    def test_deviations_near_the_largest_double_stay_finite(self):
        """scipy's t and p for the same sample times 1e-300; the unscaled deviation 3.4e308 overflowed."""
        result = one_sample_ttest([-1.7e308, -1.7e308, 1.7e308])
        assert result.t_stat == -0.5
        assert result.p_value == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestTwoSidedP:
    def test_matches_mpmath(self):
        # 50-digit reference: p = I_x(df/2, 1/2) with x = df/(df+t^2), over
        # the grid the module docstring states its accuracy for
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        dfs = np.array([1, 2, 3, 4, 5, 7, 10, 20, 30, 58, 100, 228, 445, 1000, 2000, 5000])
        ts = np.concatenate([-np.geomspace(1e-12, 1e3, 46), [0.0], np.geomspace(1e-12, 1e3, 46)])
        got = _two_sided_p(ts[:, None], dfs[None, :])
        worst = 0.0
        for i, t in enumerate(ts):
            for j, df in enumerate(dfs):
                t_mp = mpmath.mpf(float(t))
                x = mpmath.mpf(int(df)) / (int(df) + t_mp * t_mp)
                want = mpmath.betainc(mpmath.mpf(int(df)) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)
                if want < mpmath.mpf("1e-300"):
                    continue
                worst = max(worst, float(abs(mpmath.mpf(float(got[i, j])) - want) / want))
        assert worst <= 1e-9

    def test_arrays_and_scalars_agree(self):
        t = np.array([0.0, 0.3, -2.0, 40.0, math.inf])
        df = np.array([1, 10, 100, 5000, 3])
        assert _two_sided_p(t, df).tolist() == [float(_two_sided_p(a, b)) for a, b in zip(t, df)]
        assert _two_sided_p(math.inf, 3) == 0.0
        assert _two_sided_p(0.0, 3) == 1.0


def test_p_value_edge_values():
    # NaN stays NaN; a tail below the smallest double is 0 without
    # running the continued fraction, also when no element needs it
    assert np.isnan(_two_sided_p(math.nan, 5))
    assert _two_sided_p(np.array([1e3, 1e5]), 1198).tolist() == [0.0, 0.0]
    assert _two_sided_p(np.array([1e-200, -1e-200]), 7).tolist() == [1.0, 1.0]
    p = _two_sided_p(np.array([2.0, 1e12, math.nan, -math.inf]), 30)
    assert p[0] == pytest.approx(0.0546250, abs=1e-7) and p[1] == 0.0 and np.isnan(p[2]) and p[3] == 0.0


def test_p_value_that_does_not_converge_is_numeric_error(monkeypatch):
    # just above the switch a million degrees of freedom take more than 32 steps
    monkeypatch.setattr(stats, "_CF_STEPS", 32)
    df = 1e6
    t_switch = math.sqrt(df / ((df / 2 + 1) / (df / 2 + 2.5)) - df)
    with pytest.raises(NumericError, match="did not converge"):
        _two_sided_p(np.array([0.5, 1.001 * t_switch]), df)


def test_log_gamma_ratio_matches_mpmath():
    # log(Gamma(a + 1/2) / Gamma(a)) sets the p-value prefactor; its absolute
    # error is the relative error of p, on either side of the switch to the series
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for a in (0.5, 1.0, 4.5, 29.5, 30.0, 58.5, 222.0, 599.0, 2500.0, 1e5):
        exact = mpmath.loggamma(mpmath.mpf(a) + mpmath.mpf(1) / 2) - mpmath.loggamma(mpmath.mpf(a))
        assert abs(float(stats._log_gamma_ratio(a) - exact)) <= 2e-14


class TestPearson:
    def test_self_correlation_is_one(self):
        assert pearson([1.0, 2.0, 4.0], [1.0, 2.0, 4.0]) == 1.0

    def test_exact_anti_linearity(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_hand_computed_point_eight(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            pearson([1, 2, 3], [1, 2])

    def test_needs_three_pairs(self):
        with pytest.raises(DataError, match="at least 3"):
            pearson([1, 2], [3, 4])

    def test_constant_input(self):
        with pytest.raises(NumericError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_non_finite_value_is_data_error(self):
        with pytest.raises(DataError, match="correlation input holds a non-finite value"):
            pearson([1, 2, math.inf], [1, 2, 3])


class TestCorrelationSignificance:
    def test_zero_correlation(self):
        t, p, sig = correlation_significance(0.0, 50)
        assert t == 0.0
        assert p == 1.0
        assert not sig

    def test_strong_correlation_large_sample(self):
        t, p, sig = correlation_significance(0.98, 447)
        assert t == pytest.approx(103.9, abs=0.1)
        assert p < 1e-10
        assert sig

    def test_perfect_correlation_convention(self):
        t, p, sig = correlation_significance(1.0, 10)
        assert math.isinf(t)
        assert p == 0.0
        assert sig
        t, p, sig = correlation_significance(-1.0, 10)
        assert p == 0.0 and sig

    def test_needs_three(self):
        with pytest.raises(DataError):
            correlation_significance(0.5, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            correlation_significance(1.5, 10)

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="correlation nan is not finite"):
            correlation_significance(math.nan, 10)

    @pytest.mark.parametrize("alpha", [2.0, 0.0, 1.0, -0.1, math.nan])
    def test_alpha_validated_like_the_matrix(self, alpha, rng):
        with pytest.raises(DataError, match=r"alpha must be in \(0, 1\)") as single:
            correlation_significance(0.5, 10, alpha=alpha)
        panel = SeriesPanel("g", MonthStamp(2000, 1), ("AAA", "BBB"), rng.uniform(1.0, 2.0, (10, 2)))
        with pytest.raises(DataError) as matrix:
            correlation_matrix(panel, alpha=alpha)
        assert str(single.value) == str(matrix.value)


class TestMonthlyReturnSummary:
    def test_needs_twelve_months(self):
        record = MeanReturnStat(0.01, 2, 1.0, 0.5, False)
        with pytest.raises(DataError, match="per_month must have 12 records, got 11"):
            MonthlyReturnSummary("USD", 0.05, (record,) * 11, MeanReturnStat(0.01, 22, 1.0, 0.5, False))

    def test_counts_must_sum(self):
        record = MeanReturnStat(0.01, 2, 1.0, 0.5, False)
        with pytest.raises(DataError, match="per-month counts do not sum to the overall count"):
            MonthlyReturnSummary("USD", 0.05, (record,) * 12, MeanReturnStat(0.01, 25, 1.0, 0.5, False))


class TestMonthlyMeanReturns:
    def test_year_alternating_signs_mean_zero(self):
        # +1% every month of even years, -1% in odd years: every bucket
        # averages exactly zero, so nothing is significant
        values = []
        for year in range(2000, 2008):
            values.extend([0.01 if year % 2 == 0 else -0.01] * 12)
        summary = monthly_mean_returns(make_returns(values, start="2000-01"))
        for rec in summary.per_month:
            assert rec.mean == 0.0
            assert rec.t_stat == 0.0
            assert rec.p_value == 1.0
            assert not rec.significant
        assert summary.overall.mean == 0.0
        assert not summary.overall.significant
        assert sum(r.n for r in summary.per_month) == summary.overall.n == 96

    def test_january_effect_detected(self):
        # +5% every January, zero elsewhere, plus a deterministic
        # alternating +-1e-4 wiggle so no bucket is constant
        values = []
        for year in range(2000, 2010):
            for month in range(1, 13):
                wiggle = 1e-4 if year % 2 == 0 else -1e-4
                values.append((0.05 if month == 1 else 0.0) + wiggle)
        summary = monthly_mean_returns(make_returns(values, start="2000-01"))
        assert summary.per_month[0].significant
        assert summary.per_month[0].mean == pytest.approx(0.05, abs=1e-12)
        for rec in summary.per_month[1:]:
            assert not rec.significant
            assert rec.t_stat == 0.0

    def test_sparse_month_named_in_error(self):
        with pytest.raises(DataError, match="month 1"):
            monthly_mean_returns(make_returns([0.01] * 13, start="2000-02"))

    def test_constant_bucket_reported_with_month(self):
        values = []
        for year in range(2000, 2004):
            for month in range(1, 13):
                wiggle = 1e-4 if year % 2 == 0 else -1e-4
                values.append(0.05 if month == 1 else wiggle)
        with pytest.raises(NumericError, match="month 1.*constant"):
            monthly_mean_returns(make_returns(values, start="2000-01"))

    def test_alpha_validated(self):
        with pytest.raises(DataError, match="alpha"):
            monthly_mean_returns(make_returns([0.01, -0.01] * 12), alpha=1.5)

    @pytest.mark.parametrize("special", [math.nan, math.inf])
    def test_non_finite_return_is_data_error(self, special):
        values = [0.01, -0.02, 0.03] * 8
        values[9] = special
        with pytest.raises(DataError, match="returns holds a non-finite value"):
            monthly_mean_returns(make_returns(values))

    def test_significance_flag_matches_p_value(self, rng):
        values = rng.normal(0.005, 0.04, size=240)
        summary = monthly_mean_returns(make_returns(values))
        for rec in (*summary.per_month, summary.overall):
            assert rec.significant == (rec.p_value < summary.alpha)


class TestPanelMonthlyMeanReturns:
    def test_earliest_faulty_stage_is_reported(self):
        # AAA has a constant May, BBB a return that overflows: the returns of
        # every currency are checked before any t-test, whatever the column order
        n = 48
        prices = np.column_stack([100.0 + np.arange(n) % 5, 50.0 + np.arange(n) % 7, 80.0 + np.arange(n) ** 2 % 11])
        prices[4::12, 0] = prices[3::12, 0]
        prices[2, 1] = 1e-310
        panel = SeriesPanel("g", MonthStamp(2000, 1), ("AAA", "BBB", "CCC"), prices)
        with pytest.raises(NumericError, match="return of BBB at 2000-04"):
            monthly_tests(panel.returns(), panel.start.shift(1), 0.05)
        swapped = SeriesPanel("g", panel.start, ("BBB", "AAA", "CCC"), prices[:, [1, 0, 2]])
        with pytest.raises(NumericError, match="return of BBB at 2000-04"):
            monthly_tests(swapped.returns(), swapped.start.shift(1), 0.05)
        constant_later = SeriesPanel("g", panel.start, ("CCC", "AAA"), prices[:, [2, 0]])
        with pytest.raises(NumericError, match="calendar month 5: constant sample"):
            monthly_tests(constant_later.returns(), constant_later.start.shift(1), 0.05)

    def test_analysis_makes_at_most_three_p_value_calls(self, rng, monkeypatch):
        calls = []
        kernel = stats._two_sided_p

        def counted(t_stat, df):
            calls.append(np.size(t_stat))
            return kernel(t_stat, df)

        monkeypatch.setattr(stats, "_two_sided_p", counted)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.004, 0.04, size=(150, 4)), axis=0))
        analyze_panel(SeriesPanel("g", MonthStamp(1990, 7), ("AAA", "BBB", "CCC", "DDD"), prices), ReportConfig())
        assert calls == [4 * 13, 16, 16]  # the monthly pass, then one call per correlation basis, on all 4 x 4 cells

    def test_huge_returns_keep_t_finite(self):
        # one price of 1e-290 makes a return near 1e292: its square overflows
        # unless the deviations are scaled
        values = np.resize([0.01, -0.02, 0.03, 0.015, -0.005], 36)
        values[17] = 1e292
        summary = monthly_mean_returns(make_returns(values, start="2000-01"))
        for rec in (summary.per_month[5], summary.overall):
            assert math.isfinite(rec.t_stat) and rec.t_stat != 0.0
            assert 0.0 < rec.p_value < 1.0
        assert summary.overall.t_stat == pytest.approx(1.0, rel=1e-6)


class TestCorrelationMatrix:
    def _panel(self, rng):
        n = 60
        base = np.cumsum(rng.normal(0.5, 2.0, n)) + 100.0
        affine = 2.0 * base + 7.0
        noise = rng.uniform(50.0, 60.0, n)
        return SeriesPanel.from_series("g", (
            make_series(base, currency="AAA"),
            make_series(affine, currency="BBB"),
            make_series(noise, currency="CCC"),
        ))

    def test_affine_pair_and_noise(self, rng):
        panel = self._panel(rng)
        matrix = correlation_matrix(panel, basis="prices")
        assert matrix.value("AAA", "BBB") == pytest.approx(1.0, abs=1e-12)
        assert abs(matrix.value("AAA", "CCC")) < 0.5
        # independent recomputation of the full matrix
        data = np.array([s.prices() for s in panel.series])
        np.testing.assert_allclose(np.array(matrix.values), np.corrcoef(data), atol=1e-12)

    def test_symmetry_and_unit_diagonal(self, rng):
        matrix = correlation_matrix(self._panel(rng), basis="returns")
        values = np.array(matrix.values)
        assert np.array_equal(values, values.T)
        assert np.array_equal(np.diag(values), np.ones(3))
        assert matrix.n == 59  # one fewer than the price count

    def test_identical_series_fully_correlated(self, rng):
        vals = rng.uniform(100, 200, 40)
        panel = SeriesPanel.from_series("g", (make_series(vals, currency="AAA"),
                                  make_series(vals, currency="BBB")))
        matrix = correlation_matrix(panel, basis="prices")
        assert matrix.value("AAA", "BBB") == 1.0
        assert matrix.significant[0][1]

    def test_needs_two_series(self):
        panel = SeriesPanel.from_series("g", (make_series([1.0, 2.0, 3.0]),))
        with pytest.raises(DataError, match="at least 2"):
            correlation_matrix(panel)

    @pytest.mark.parametrize("values, message", [
        (np.eye(3), "correlation values is not a 2 x 2 matrix"),
        (np.ones(2), r"correlation values must be a 2-D array, got shape \(2,\)"),
    ])
    def test_construction_checks_the_shape(self, values, message):
        with pytest.raises(DataError, match=message):
            CorrelationMatrix(("AAA", "BBB"), values, np.zeros((2, 2)), np.zeros((2, 2), bool), 3, "prices", 0.05)

    def test_invalid_basis(self, rng):
        with pytest.raises(DataError, match="basis"):
            correlation_matrix(self._panel(rng), basis="levels")

    @pytest.mark.parametrize("special", [math.nan, math.inf])
    def test_non_finite_price_is_data_error(self, rng, special):
        prices = rng.uniform(50.0, 60.0, (60, 3))
        prices[7, 1] = special
        with pytest.raises(DataError, match="correlation input holds a non-finite value"):
            correlation_matrix(SeriesPanel("g", MonthStamp(2000, 1), ("AAA", "BBB", "CCC"), prices))
