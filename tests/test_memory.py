"""Peak memory of the parser, the decomposition and the JSON writer on a 200 x 1200 panel, traced by tracemalloc."""

import tracemalloc
from collections import deque

import numpy as np
import pytest

from goldseason import MonthStamp, ReportConfig, analyze_panel, decompose, parse_panel_csv
from goldseason.report import json_pieces, render_json

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


def test_parser_peak_is_at_most_five_times_the_text(panel_text):
    assert traced_peak(lambda: parse_panel_csv(panel_text)) <= 5 * len(panel_text)


def test_decomposition_peak_is_at_most_seven_panels(panel_text):
    panel = parse_panel_csv(panel_text)
    assert traced_peak(lambda: decompose(panel)) <= 7 * panel.prices.nbytes


def test_streamed_json_peak_is_below_the_document_length(panel_text):
    # joining the pieces, as render_json does, holds the whole document and more
    analysis = analyze_panel(parse_panel_csv(panel_text), ReportConfig(fmt="json"))
    document = render_json(analysis)
    assert traced_peak(lambda: deque(json_pieces(analysis), maxlen=0)) < len(document)
