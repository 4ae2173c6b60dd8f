"""Peak memory of each stage of a report on a 200 x 1200 panel, traced by tracemalloc.

A bound is the peak the stage reaches, rounded up by a few percent: the text parser holds the text's lines and the
prices, the file reader the prices and one chunk of lines, the monthly tests the returns' grid of one block of
columns, the decomposition the calendar grid of its raw seasonals, and the returns correlations the p-value pass
over one block of rows of the 200 x 200 matrix.
"""

import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest

from goldseason import (MonthStamp, PriceSeries, ReportConfig, SeriesPanel, analyze_panel, correlation_matrix,
                        decompose, parse_panel_csv)
from goldseason.report import json_pieces, render_json
from goldseason.stats import RETURNS, monthly_tests

CODES = tuple(a + b + c for a in "ABCDEFGH" for b in "ABCDE" for c in "ABCDE")  # 200 codes


@pytest.fixture(scope="module")
def panel_text() -> str:
    """200 currencies over 1200 months, prices with three decimals as the World Gold Council files carry them."""
    rng = np.random.default_rng(12)
    prices = 10.0 ** rng.uniform(2.0, 4.5, 200) * np.exp(np.cumsum(rng.normal(0.0, 0.03, (1200, 200)), axis=0))
    first = MonthStamp(1979, 1)
    lines = ["date," + ",".join(CODES)]
    lines += [f"{first.shift(i)}," + ",".join(f"{price:.3f}" for price in row) for i, row in enumerate(prices)]
    return "\n".join(lines) + "\n"


def traced_peak(call) -> int:
    """The peak of the memory traced while `call` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parser_peak_is_at_most_2_4_times_the_text(panel_text):
    assert traced_peak(lambda: parse_panel_csv(panel_text)) <= 2.4 * len(panel_text)


def test_stacking_series_copies_their_prices_once():
    series = [PriceSeries(code, MonthStamp(2000, 1), np.linspace(1.0, 2.0, 100_000) + j)
              for j, code in enumerate(("AAA", "BBB", "CCC", "DDD"))]
    assert traced_peak(lambda: SeriesPanel.from_series("g", series)) <= 1.2 * 4 * 100_000 * 8


@pytest.mark.parametrize("trailer", ["", "\n", "\n \n\r\n"], ids=["no blank line", "a blank line", "blank lines"])
def test_file_reader_peak_is_at_most_1_5_panels(panel_text, tmp_path, trailer):
    # the CLI reads its input through this path; the whole text, its bytes and its lines would be 3.6 panels,
    # and blank lines that end the file are read as the other lines are
    path = tmp_path / "panel.csv"
    path.write_text(panel_text + trailer)
    panel = parse_panel_csv(path)
    assert panel == parse_panel_csv(panel_text)
    assert traced_peak(lambda: parse_panel_csv(path)) <= 1.5 * panel.prices.nbytes


def test_monthly_tests_peak_is_at_most_0_6_panels(panel_text):
    panel = parse_panel_csv(panel_text)
    returns = panel.returns()
    assert traced_peak(lambda: monthly_tests(returns, panel.start.shift(1), 0.05)) <= 0.6 * returns.nbytes


def test_returns_correlation_peak_is_at_most_3_0_panels(panel_text):
    panel = parse_panel_csv(panel_text)
    assert traced_peak(lambda: correlation_matrix(panel, RETURNS)) <= 3.0 * panel.prices.nbytes


def test_decomposition_peak_is_at_most_1_5_panels(panel_text):
    # neither the fitted values nor the irregular component is stored: each is worked out when it is read
    panel = parse_panel_csv(panel_text)
    assert traced_peak(lambda: decompose(panel)) <= 1.5 * panel.prices.nbytes


def test_streamed_json_peak_is_below_the_document_length(panel_text):
    # joining the pieces, as render_json does, holds the whole document and more
    analysis = analyze_panel(parse_panel_csv(panel_text), ReportConfig(fmt="json"))
    document = render_json(analysis)
    assert traced_peak(lambda: deque(json_pieces(analysis), maxlen=0)) < len(document)


def test_json_pieces_let_the_panel_prices_go(panel_text):
    # the CLI writes the pieces after dropping the panel and the analysis: the prices are freed before the writing
    panel = parse_panel_csv(panel_text)
    analysis = analyze_panel(panel, ReportConfig(fmt="json"))
    document, prices = render_json(analysis), weakref.ref(panel.prices)
    pieces = json_pieces(analysis)
    del panel, analysis
    assert prices() is None
    assert "".join(pieces) == document
