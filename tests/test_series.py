import warnings

import numpy as np
import pytest

from goldseason import (
    DataError,
    MonthStamp,
    NumericError,
    PriceSeries,
    ReturnSeries,
    SeriesPanel,
    align_panel,
    cumulative_growth,
    parse_panel_csv,
    render_panel_csv,
    slice_span,
    to_returns,
)

from conftest import make_series, make_stamps


class TestMonthStamp:
    def test_parse_and_str(self):
        stamp = MonthStamp.parse("1979-01")
        assert (stamp.year, stamp.month) == (1979, 1)
        assert str(stamp) == "1979-01"

    def test_ordering_is_lexicographic(self):
        assert MonthStamp(1999, 12) < MonthStamp(2000, 1) < MonthStamp(2000, 2)

    def test_shift_crosses_year_boundary(self):
        assert MonthStamp(1999, 11).shift(3) == MonthStamp(2000, 2)
        assert MonthStamp(2000, 2).shift(-3) == MonthStamp(1999, 11)

    @pytest.mark.parametrize("bad", ["1979-13", "1979", "79-01", "1979/01", "1979-1"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(DataError):
            MonthStamp.parse(bad)

    def test_calendar_slots_lay_months_out_in_whole_years(self):
        slots = MonthStamp(2000, 11).calendar_slots(15)  # 2000-11 .. 2002-01
        assert slots.shape == (3, 12)
        rows, columns = np.nonzero(slots)
        assert rows.tolist() == [0, 0] + [1] * 12 + [2]
        assert columns.tolist() == [10, 11] + list(range(12)) + [0]
        assert MonthStamp(2000, 1).calendar_slots(24).all()

    def test_month_out_of_range(self):
        with pytest.raises(DataError):
            MonthStamp(2000, 0)


class TestConstruction:
    def test_price_must_be_positive(self):
        # prices are validated where they are read, by parse_panel_csv
        with pytest.raises(DataError):
            parse_panel_csv("date,USD\n2000-01,0.0\n")
        with pytest.raises(DataError):
            parse_panel_csv("date,USD\n2000-01,-5.0\n")

    def test_currency_code_must_be_three_letters(self):
        with pytest.raises(DataError):
            make_series([1.0, 2.0], currency="US")
        with pytest.raises(DataError):
            make_series([1.0, 2.0], currency="US1")

    def test_series_rejects_gap(self):
        # a series is a start stamp plus values, so only the parser can see a gap
        with pytest.raises(DataError, match="2000-02"):
            parse_panel_csv("date,USD\n2000-01,1.0\n2000-03,1.0\n")

    def test_series_and_panel_need_data(self):
        with pytest.raises(DataError, match="series USD has no observations"):
            make_series([])
        with pytest.raises(DataError, match="panel 'g' has no series"):
            SeriesPanel("g", MonthStamp(2000, 1), (), np.ones((2, 0)))
        with pytest.raises(DataError, match="panel 'g' has no series"):
            SeriesPanel.from_series("g", [])

    def test_panel_rejects_duplicate_codes(self):
        a = make_series([1.0, 2.0])
        with pytest.raises(DataError, match="duplicate"):
            SeriesPanel.from_series("g", (a, a))
        with pytest.raises(DataError, match="duplicate"):
            SeriesPanel("g", MonthStamp(2000, 1), ("USD", "USD"), np.ones((2, 2)))

    @pytest.mark.parametrize("code", ["a,b", "US D", "USD\n", "US"])
    def test_panel_rejects_a_code_its_csv_cannot_carry(self, code):
        # render_panel_csv writes the codes into the header, which parse_panel_csv must read back
        with pytest.raises(DataError) as info:
            SeriesPanel("g", MonthStamp(2000, 1), ("EUR", code), np.ones((2, 2)))
        assert str(info.value) == f"currency code must be three letters, got {code!r}"

    def test_panel_rejects_span_mismatch(self):
        a = make_series([1.0, 2.0, 3.0])
        b = make_series([1.0, 2.0], currency="EUR")
        with pytest.raises(DataError, match="span"):
            SeriesPanel.from_series("g", (a, b))

    def test_panel_rejects_shape_mismatch(self):
        with pytest.raises(DataError, match="columns"):
            SeriesPanel("g", MonthStamp(2000, 1), ("USD", "EUR"), np.ones((3, 3)))
        with pytest.raises(DataError, match="2-D"):
            SeriesPanel("g", MonthStamp(2000, 1), ("USD",), np.ones(3))

    def test_panel_is_read_only_columns_are_views(self, small_csv):
        panel = parse_panel_csv(small_csv)
        assert panel.prices.shape == (3, 2)
        assert not panel.prices.flags.writeable
        assert np.shares_memory(panel.series[1].prices(), panel.prices)
        with pytest.raises(ValueError):
            panel.series[0].prices()[0] = 1.0

    def test_series_copies_writable_input(self):
        values = np.array([1.0, 2.0])
        series = make_series(values)
        values[0] = 9.0
        assert series.prices().tolist() == [1.0, 2.0]
        assert series.end == MonthStamp(2000, 2)


class TestEquality:
    def test_price_and_return_series_with_the_same_fields_differ(self):
        prices = make_series([1.0, 2.0, 3.0])
        returns = ReturnSeries(prices.currency, prices.start, prices.prices())
        assert prices != returns and returns != prices
        assert prices == make_series([1.0, 2.0, 3.0])

    def test_panel_equals_only_a_panel(self):
        panel = SeriesPanel.from_series("g", (make_series([1.0, 2.0]),))
        assert (panel == "x") is False
        assert panel != panel.series[0]
        assert panel == SeriesPanel.from_series("g", (make_series([1.0, 2.0]),))

    def test_array_records_are_unhashable(self):
        series = make_series([1.0, 2.0])
        for record in (series, SeriesPanel.from_series("g", (series,))):
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)


class TestParsePanelCsv:
    def test_two_columns(self, small_csv):
        panel = parse_panel_csv(small_csv, "demo")
        assert panel.currencies == ("USD", "EUR")
        assert len(panel.series[0]) == 3
        assert panel.series[1].prices().tolist() == [90.0, 99.0, 94.5]
        assert panel.start == MonthStamp(2000, 1)
        # a byte-order mark and trailing blank lines, as spreadsheet exports write them
        assert parse_panel_csv("\ufeff" + small_csv + "\n \n", "demo") == panel

    def test_long_span_point_and_return_counts(self):
        # 447 monthly prices ending 2016-02 (first return stamp 1979-01)
        stamps = make_stamps("1978-12", 447)
        assert stamps[-1] == MonthStamp(2016, 2)
        text = "date,USD\n" + "\n".join(f"{s},{100 + i * 0.25}" for i, s in enumerate(stamps))
        panel = parse_panel_csv(text)
        assert len(panel.series[0]) == 447
        assert len(to_returns(panel.series[0])) == 446

    def test_gap_names_missing_month(self):
        text = "date,USD\n1979-01,100\n1979-03,101\n"
        with pytest.raises(DataError, match="1979-02"):
            parse_panel_csv(text)

    def test_duplicate_stamp(self):
        text = "date,USD\n1979-01,100\n1979-01,101\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_panel_csv(text)

    def test_rows_out_of_order(self):
        text = "date,USD\n1979-02,100\n1979-01,101\n"
        with pytest.raises(DataError, match="order"):
            parse_panel_csv(text)

    @pytest.mark.parametrize("header", ["month,USD", "USD,EUR", "date"])
    def test_malformed_header(self, header):
        with pytest.raises(DataError, match="header"):
            parse_panel_csv(header + "\n2000-01,1.0\n")

    def test_non_numeric_price_names_stamp_and_column(self):
        text = "date,USD,EUR\n2000-01,100,abc\n"
        with pytest.raises(DataError, match=r"2000-01.*EUR"):
            parse_panel_csv(text)

    def test_non_positive_price_names_stamp_and_column(self):
        text = "date,USD\n2000-01,100\n2000-02,-3\n"
        with pytest.raises(DataError, match=r"2000-02.*USD"):
            parse_panel_csv(text)

    def test_blank_cell_rejected(self):
        text = "date,USD,EUR\n2000-01,100,\n"
        with pytest.raises(DataError):
            parse_panel_csv(text)
        with pytest.raises(DataError, match="line 3"):
            parse_panel_csv("date,USD\n2000-01,100\n\n2000-02,101\n")

    def test_empty_document(self):
        with pytest.raises(DataError):
            parse_panel_csv("")
        with pytest.raises(DataError, match="no data rows"):
            parse_panel_csv("date,USD\n")

    def test_round_trip_is_identity(self, small_csv):
        panel = parse_panel_csv(small_csv, "demo")
        assert parse_panel_csv(render_panel_csv(panel), "demo") == panel

    def test_render_stops_at_the_last_month_a_stamp_can_hold(self):
        panel = SeriesPanel("g", MonthStamp(9999, 10), ("AAA",), [[1.0], [2.0], [3.0]])
        assert parse_panel_csv(render_panel_csv(panel), "g") == panel
        with pytest.raises(DataError, match="month 10000-01, outside the years 0000..9999"):
            render_panel_csv(SeriesPanel("g", MonthStamp(9999, 11), ("AAA",), [[1.0], [2.0], [3.0]]))
        with pytest.raises(DataError, match="month -001-12, outside the years 0000..9999"):
            render_panel_csv(SeriesPanel("g", MonthStamp(-1, 12), ("AAA",), [[1.0], [2.0]]))


class TestToReturns:
    def test_basic_arithmetic(self):
        series = make_series([100.0, 110.0])
        rets = to_returns(series)
        assert rets.values().tolist() == pytest.approx([0.10], abs=1e-15)

    def test_constant_prices_give_zero_returns(self):
        rets = to_returns(make_series([50.0, 50.0, 50.0]))
        assert rets.values().tolist() == [0.0, 0.0]

    def test_stamps_carried_from_later_month(self):
        series = make_series([100.0, 110.0], start="2000-01")
        assert to_returns(series).stamps() == (MonthStamp(2000, 2),)

    def test_length_is_one_less(self):
        series = make_series(np.linspace(100, 200, 37))
        assert len(to_returns(series)) == 36

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 2"):
            to_returns(make_series([100.0]))

    @pytest.mark.parametrize("prices", [[100.0, 1e-310, 100.0], [1e-300, 1e10]])
    def test_overflowing_return_names_currency_and_month(self, prices):
        with pytest.raises(NumericError, match="EUR at 2000-0[23]"):
            to_returns(make_series(prices, currency="EUR"))

    def test_panel_returns_match_series_returns(self, rng):
        panel = align_panel([make_series(rng.uniform(50, 500, 30), currency=code) for code in ("USD", "EUR")])
        for j, series in enumerate(panel.series):
            np.testing.assert_array_equal(panel.returns()[:, j], to_returns(series).values())

    def test_matches_elementwise_recomputation(self, rng):
        prices = rng.uniform(50, 500, size=60)
        series = make_series(prices)
        got = to_returns(series).values()
        expected = [(prices[i] - prices[i - 1]) / prices[i - 1] for i in range(1, 60)]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


class TestSliceSpan:
    def test_full_span_is_identity(self):
        series = make_series([1.0, 2.0, 3.0])
        assert slice_span(series, series.start, series.end) == series

    def test_last_24_of_447(self):
        series = make_series(np.linspace(100, 300, 447), start="1978-12")
        out = slice_span(series, MonthStamp(2014, 3), MonthStamp(2016, 2))
        assert len(out) == 24
        assert out.end == series.end

    def test_start_after_end(self):
        series = make_series([1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="after"):
            slice_span(series, MonthStamp(2000, 3), MonthStamp(2000, 1))

    def test_out_of_range(self):
        series = make_series([1.0, 2.0, 3.0], start="2000-01")
        with pytest.raises(DataError, match="out of range"):
            slice_span(series, MonthStamp(1999, 12), MonthStamp(2000, 2))


class TestAlignPanel:
    def test_identical_spans_unchanged(self):
        a = make_series([1.0, 2.0, 3.0])
        b = make_series([4.0, 5.0, 6.0], currency="EUR")
        panel = align_panel([a, b], "g")
        assert panel.series == (a, b)

    def test_truncates_to_intersection(self):
        long = make_series(np.linspace(100, 300, 447), start="1978-12")
        short = make_series(np.linspace(90, 280, 374), start="1985-01", currency="EUR")
        panel = align_panel([long, short])
        assert panel.start == MonthStamp(1985, 1)
        assert panel.end == MonthStamp(2016, 2)
        assert all(len(s) == 374 for s in panel.series)

    def test_idempotent(self):
        a = make_series(np.linspace(1, 5, 30), start="1999-01")
        b = make_series(np.linspace(2, 6, 40), start="1998-07", currency="EUR")
        once = align_panel([a, b])
        twice = align_panel(list(once.series))
        assert once.series == twice.series

    def test_disjoint_spans(self):
        a = make_series([1.0, 2.0], start="2000-01")
        b = make_series([1.0, 2.0], start="2005-01", currency="EUR")
        with pytest.raises(DataError, match="overlap"):
            align_panel([a, b])

    def test_single_month_overlap_rejected(self):
        a = make_series([1.0, 2.0], start="2000-01")
        b = make_series([1.0, 2.0], start="2000-02", currency="EUR")
        with pytest.raises(DataError, match="shorter than 2"):
            align_panel([a, b])

    def test_empty_input(self):
        with pytest.raises(DataError):
            align_panel([])


class TestCumulativeGrowth:
    def test_published_endpoint_ratio(self):
        series = make_series([226.0, 1234.0])
        assert cumulative_growth(series) == pytest.approx(5.4602, abs=1e-4)

    def test_constant_series(self):
        assert cumulative_growth(make_series([7.0] * 10)) == 1.0

    def test_doubling(self):
        assert cumulative_growth(make_series([100.0, 150.0, 200.0])) == 2.0

    def test_too_short(self):
        with pytest.raises(DataError):
            cumulative_growth(make_series([100.0]))

    def test_overflowing_ratio_is_numeric_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^growth of AAA is not finite: price 1e\\+308 over 5e-324$"):
                cumulative_growth(PriceSeries("AAA", MonthStamp(2000, 1), [5e-324, 1e308]))
