"""A row-by-row CSV panel parser, the oracle for `goldseason.series.parse_panel_csv`.

`reference_parse_panel_csv` parses one `MonthStamp` per row and steps
through the stamps in a loop, checking each against the one before. Its
rules and messages are the CSV contract of `goldseason.series`, so the
package's parser must raise the same error, or build the same panel, for
any text.
"""

import numpy as np

from goldseason.errors import DataError
from goldseason.series import MonthStamp, SeriesPanel, _check_currency


def reference_parse_panel_csv(text: str, group: str = "panel") -> SeriesPanel:
    lines = text.removeprefix("\ufeff").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise DataError("empty document")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2 or header[0] != "date":
        raise DataError(f"malformed header {lines[0]!r}; expected 'date,<CODE>[,<CODE>...]'")
    codes = header[1:]
    for code in codes:
        _check_currency(code)

    start = previous = None
    rows: list[list[str]] = []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(header):
                raise DataError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
            stamp = MonthStamp.parse(cells[0])
            if previous is None:
                start = stamp
            else:
                step = stamp.index() - previous.index()
                if step == 0:
                    raise DataError(f"duplicate stamp {stamp}")
                if step < 0:
                    raise DataError(f"stamps out of order at {stamp}")
                if step > 1:
                    raise DataError(f"calendar gap: missing {previous.shift(1)}")
            previous = stamp
            rows.append(cells[1:])
    except DataError:
        _check_prices(rows, codes, start)  # a bad price in an earlier row is reported first
        raise

    if not rows:
        raise DataError("document has a header but no data rows")
    try:
        prices = np.array(rows, dtype=float)
        valid = bool((np.isfinite(prices) & (prices > 0.0)).all())
    except ValueError:
        valid = False
    if not valid:
        _check_prices(rows, codes, start)
        raise DataError("prices could not be read as numbers")
    return SeriesPanel(group, start, tuple(codes), prices)


def _check_prices(rows: list[list[str]], codes: list[str], start: MonthStamp) -> None:
    """Raise for the first cell, in row order, that is not a positive finite number."""
    for i, cells in enumerate(rows):
        for code, cell in zip(codes, cells):
            try:
                price = float(cell)
            except ValueError:
                raise DataError(f"non-numeric price {cell!r} at {start.shift(i)} in column {code}") from None
            if not np.isfinite(price) or price <= 0.0:
                raise DataError(f"non-positive price {cell!r} at {start.shift(i)} in column {code}")
