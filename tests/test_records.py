"""The frozen records: each one's `==` and `hash`, `MonthStamp` ordering, immutability, `repr` and defaults.

Value records compare by their fields, in order, and hash like the tuple of them. Records that hold arrays compare
by `series._records_equal` and are unhashable. The three result containers compare by identity.
"""

import numpy as np
import pytest

from goldseason import (
    ADDITIVE,
    AccuracyMetrics,
    DataError,
    GeneratorSpec,
    MeanReturnStat,
    MonthStamp,
    PriceSeries,
    ReportConfig,
    ReturnSeries,
    SeasonalIndices,
    SeriesPanel,
    TrendLine,
    analyze_panel,
    decompose,
    monthly_mean_returns,
)
from goldseason.stats import monthly_tests


def prices(n=48):
    return [100.0 + (i % 12) + 0.5 * i for i in range(n)]


def panel():
    return SeriesPanel("g", MonthStamp(2000, 1), ("AAA", "BBB"), np.column_stack((prices(), prices()[::-1])))


def summary(currency="USD"):
    returns = ReturnSeries(currency, MonthStamp(2000, 2), [0.01 * ((i * 7) % 5) - 0.02 for i in range(36)])
    return monthly_mean_returns(returns)


def analysis():
    return analyze_panel(panel(), ReportConfig())


# name: (build an instance, build one that differs, its field names in order)
VALUE_RECORDS = {
    "MonthStamp": (lambda: MonthStamp(2000, 1), lambda: MonthStamp(2000, 2), ("year", "month")),
    "MeanReturnStat": (lambda: MeanReturnStat(0.01, 5, 1.2, 0.3, False),
                       lambda: MeanReturnStat(0.01, 5, 1.2, 0.4, False),
                       ("mean", "n", "t_stat", "p_value", "significant")),
    "MonthlyReturnSummary": (summary, lambda: summary("EUR"), ("currency", "alpha", "per_month", "overall")),
    "SeasonalIndices": (lambda: SeasonalIndices(ADDITIVE, (0.0,) * 12),
                        lambda: SeasonalIndices(ADDITIVE, (1.0, -1.0) + (0.0,) * 10), ("model", "values")),
    "TrendLine": (lambda: TrendLine(1.0, 2.0), lambda: TrendLine(1.0, 3.0), ("intercept", "slope")),
    "AccuracyMetrics": (lambda: AccuracyMetrics(1.0, 2.0, 3.0), lambda: AccuracyMetrics(1.0, 2.0, 4.0),
                        ("mape", "mad", "msd")),
    "ReportConfig": (ReportConfig, lambda: ReportConfig(alpha=0.1), ("model", "aggregator", "alpha", "quorum", "fmt")),
    "GeneratorSpec": (lambda: GeneratorSpec(ADDITIVE, 100.0, 0.5, (1.0, -1.0) + (0.0,) * 10),
                      lambda: GeneratorSpec(ADDITIVE, 100.0, 0.5, (0.0,) * 12),
                      ("model", "intercept", "slope", "indices", "noise_sd", "length", "seed", "start", "currency")),
}

ARRAY_RECORDS = {
    "PriceSeries": (lambda: PriceSeries("USD", MonthStamp(2000, 1), prices()),
                    lambda: PriceSeries("USD", MonthStamp(2000, 1), prices()[::-1])),
    "ReturnSeries": (lambda: ReturnSeries("USD", MonthStamp(2000, 1), prices()),
                     lambda: ReturnSeries("USD", MonthStamp(2000, 2), prices())),
    "SeriesPanel": (panel, lambda: SeriesPanel("h", MonthStamp(2000, 1), ("AAA", "BBB"), panel().prices)),
    "DecompositionResult": (lambda: decompose(prices(), MonthStamp(2000, 1)),
                            lambda: decompose(prices(), MonthStamp(2000, 2))),
}

IDENTITY_RECORDS = {
    "MonthlyTests": lambda: monthly_tests(panel().returns(), MonthStamp(2000, 2), 0.05),
    "CorrelationMatrix": lambda: analysis().price_correlation,
    "PanelDecomposition": lambda: decompose(panel()),
}


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_compare_and_hash_by_their_fields(name):
    build, other, names = VALUE_RECORDS[name]
    record, same = build(), build()
    assert record is not same and record == same and not record != same
    assert hash(record) == hash(same) == hash(tuple(getattr(record, field) for field in names))
    assert record != other() and hash(record) != hash(other())
    assert record.__eq__(tuple(getattr(record, field) for field in names)) is NotImplemented
    assert type(record)(*(getattr(record, field) for field in names)) == record  # positional, in field order
    assert type(record)(**{field: getattr(record, field) for field in names}) == record


def test_panel_analysis_compares_by_its_fields_and_hashes():
    record = analysis()
    names = ("group", "span", "currencies", "sections", "alpha", "model", "aggregator", "monthly",
             "price_correlation", "return_correlation", "decomposition", "signs")
    copy = type(record)(*(getattr(record, field) for field in names))
    assert copy is not record and copy == record and hash(copy) == hash(record)
    assert record != analysis()  # its monthly tests, correlations and decomposition compare by identity


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_by_type_and_fields_and_are_unhashable(name):
    build, other = ARRAY_RECORDS[name]
    record = build()
    assert record == build() and not record != build()
    assert record != other() and (record == "x") is False
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


@pytest.mark.parametrize("name", IDENTITY_RECORDS)
def test_result_containers_compare_by_identity(name):
    record = IDENTITY_RECORDS[name]()
    assert record == record and record != IDENTITY_RECORDS[name]()
    assert hash(record) == object.__hash__(record)


def test_month_stamps_order_by_year_then_month():
    stamps = [MonthStamp(2001, 1), MonthStamp(2000, 12), MonthStamp(2000, 2)]
    assert sorted(stamps) == [MonthStamp(2000, 2), MonthStamp(2000, 12), MonthStamp(2001, 1)]
    assert MonthStamp(2000, 12) < MonthStamp(2001, 1) <= MonthStamp(2001, 1)
    assert MonthStamp(2001, 1) > MonthStamp(2000, 12) >= MonthStamp(2000, 12)
    assert max(stamps) == MonthStamp(2001, 1)
    with pytest.raises(TypeError):
        MonthStamp(2000, 1) < (2000, 2)


@pytest.mark.parametrize("build, field", [
    (lambda: MonthStamp(2000, 1), "month"),
    (ReportConfig, "alpha"),
    (lambda: TrendLine(1.0, 2.0), "slope"),
    (lambda: PriceSeries("USD", MonthStamp(2000, 1), [1.0, 2.0]), "data"),
    (panel, "prices"),
    (IDENTITY_RECORDS["MonthlyTests"], "means"),
    (IDENTITY_RECORDS["PanelDecomposition"], "trend"),
])
def test_fields_cannot_be_assigned_or_deleted(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_repr_names_every_field():
    assert repr(MonthStamp(2000, 1)) == "MonthStamp(year=2000, month=1)"
    assert repr(ReportConfig()) == (
        "ReportConfig(model='multiplicative', aggregator='median', alpha=0.05, quorum=None, fmt='md')"
    )


def test_defaults_fill_the_fields_not_given():
    assert ReportConfig() == ReportConfig("multiplicative", "median", 0.05, None, "md")
    assert ReportConfig(fmt="json").alpha == 0.05
    spec = GeneratorSpec(ADDITIVE, 100.0, 0.5, (0.0,) * 12)
    assert (spec.noise_sd, spec.length, spec.seed, spec.currency) == (0.0, 240, 0, "SYN")
    assert spec.start == MonthStamp(2000, 1)


@pytest.mark.parametrize("args, kwargs", [((2000,), {}), ((2000, 1, 2), {}), ((2000,), {"year": 2000}),
                                          ((2000, 1), {"day": 1})])
def test_construction_rejects_missing_extra_and_unknown_arguments(args, kwargs):
    with pytest.raises(TypeError):
        MonthStamp(*args, **kwargs)


def test_post_init_checks_run_on_construction():
    with pytest.raises(DataError, match="month must be in 1..12"):
        MonthStamp(2000, 13)
    with pytest.raises(DataError, match="year must be an integer, got 2000.5"):
        MonthStamp(2000.5, 3)
    with pytest.raises(DataError, match="month must be an integer, got 3.0"):
        MonthStamp(2000, 3.0)
    stamp = MonthStamp(np.int64(2000), np.int8(3))  # an integer of any type is stored as an int
    assert (type(stamp.year), type(stamp.month), str(stamp)) == (int, int, "2000-03")
    with pytest.raises(DataError, match="alpha"):
        ReportConfig(alpha=2.0)
