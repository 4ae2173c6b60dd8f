import numpy as np
import pytest

from goldseason import MonthStamp, PriceSeries, ReturnSeries


def make_stamps(start: str, n: int) -> list[MonthStamp]:
    first = MonthStamp.parse(start)
    return [first.shift(i) for i in range(n)]


def make_series(values, start="2000-01", currency="USD") -> PriceSeries:
    return PriceSeries(currency, MonthStamp.parse(start), values)


def make_returns(values, start="2000-02", currency="USD") -> ReturnSeries:
    return ReturnSeries(currency, MonthStamp.parse(start), values)


def dipping_prices(low: float) -> np.ndarray:
    """Two currencies over 2000-01..2004-12: AAA sits near 1e8 but drops to `low` every January of an even year."""
    rng = np.random.default_rng(1)
    prices = np.column_stack((1e8 * np.exp(rng.normal(0.0, 0.01, 60)),
                              100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.05, 60)))))
    prices[[0, 24, 48], 0] = low
    return prices


@pytest.fixture
def small_csv() -> str:
    return "date,USD,EUR\n2000-01,100.0,90.0\n2000-02,110.0,99.0\n2000-03,105.0,94.5\n"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20160224)
