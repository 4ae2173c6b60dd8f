"""Domain types for monthly price panels plus ingestion and return arithmetic.

A panel is one read-only float64 matrix of end-of-month prices, one row per
month and one column per currency, anchored at the stamp of its first row.
Stamps carry year and month only; there is no day component. A start stamp
plus a row count cannot have a gap, so contiguity is checked once, by
`parse_panel_csv`, which is also where prices are checked to be positive
and finite. Gaps and duplicate months are hard errors, never interpolated,
because silent imputation would distort every downstream statistic.

Returns are stored as decimal fractions (0.0165, not 1.65); converting to
percent is purely a presentation concern handled by the report layer.

CSV contract (UTF-8, optionally with a byte-order mark): header line
``date,<CODE>[,<CODE>...]``, then one row ``YYYY-MM,<price>[,<price>...]``
per month in strictly ascending month order, decimal point ``.``, no
thousands separators, no blank cells. Blank lines may only trail the data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, NumericError

_STAMP_RE = re.compile(r"^(\d{4})-(\d{2})$")
_CODE_RE = re.compile(r"[A-Za-z]{3}")


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A calendar month, ordered lexicographically by (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month}")

    @classmethod
    def parse(cls, text: str) -> "MonthStamp":
        """Parse a ``YYYY-MM`` string."""
        m = _STAMP_RE.match(text.strip())
        if m is None:
            raise DataError(f"invalid month stamp {text!r}; expected YYYY-MM")
        return cls(int(m.group(1)), int(m.group(2)))

    @classmethod
    def from_index(cls, index: int) -> "MonthStamp":
        year, month0 = divmod(index, 12)
        return cls(year, month0 + 1)

    def index(self) -> int:
        """Months elapsed since 0000-01; consecutive stamps differ by 1."""
        return self.year * 12 + self.month - 1

    def shift(self, months: int) -> "MonthStamp":
        return MonthStamp.from_index(self.index() + months)

    def calendar_slots(self, n: int) -> np.ndarray:
        """A (years, 12) mask of where n consecutive months starting here fall in whole calendar years.

        Column m - 1 is calendar month m; the True slots, in row order, are the n months in time order.
        """
        slots = np.zeros((self.month + n + 10) // 12 * 12, dtype=bool)
        slots[self.month - 1:self.month - 1 + n] = True
        return slots.reshape(-1, 12)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def _check_currency(code: str) -> None:
    if not _CODE_RE.fullmatch(code):
        raise DataError(f"currency code must be three letters, got {code!r}")


def _read_only(values, ndim: int, label: str) -> np.ndarray:
    """A float64 array nothing can write through: read-only input is shared, anything else copied."""
    array = np.asarray(values, dtype=float)
    if array.ndim != ndim:
        raise DataError(f"{label} must be a {ndim}-D array, got shape {array.shape}")
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class _MonthlyColumn:
    """One currency's monthly values: a code, the stamp of the first value, and a read-only 1-D array."""

    currency: str
    start: MonthStamp
    data: np.ndarray

    def __post_init__(self) -> None:
        _check_currency(self.currency)
        data = _read_only(self.data, 1, f"series {self.currency}")
        if not data.size:
            raise DataError(f"series {self.currency} has no observations")
        object.__setattr__(self, "data", data)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.currency, self.start) == (other.currency, other.start)
            and np.array_equal(self.data, other.data)
        )

    def __len__(self) -> int:
        return self.data.size

    @property
    def end(self) -> MonthStamp:
        return self.start.shift(self.data.size - 1)

    def stamps(self) -> tuple[MonthStamp, ...]:
        return tuple(self.start.shift(i) for i in range(self.data.size))


class PriceSeries(_MonthlyColumn):
    """A contiguous monthly price series for one currency denomination."""

    def prices(self) -> np.ndarray:
        return self.data


class ReturnSeries(_MonthlyColumn):
    """Month-over-month arithmetic returns, starting one month after their prices."""

    def values(self) -> np.ndarray:
        return self.data


@dataclass(frozen=True, eq=False)
class SeriesPanel:
    """Prices of several currencies over one span: a read-only (months x currencies) matrix.

    `series`, built on first access, holds one `PriceSeries` per column, each a view of the matrix.
    """

    group: str
    start: MonthStamp
    currencies: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        codes = tuple(self.currencies)
        if not codes:
            raise DataError(f"panel {self.group!r} has no series")
        if len(set(codes)) != len(codes):
            raise DataError(f"panel {self.group!r} has duplicate currency codes: {list(codes)}")
        for code in codes:
            _check_currency(code)
        prices = _read_only(self.prices, 2, f"panel {self.group!r}")
        if prices.shape[1] != len(codes):
            raise DataError(f"panel {self.group!r} has {prices.shape[1]} price columns for {len(codes)} codes")
        object.__setattr__(self, "currencies", codes)
        object.__setattr__(self, "prices", prices)

    @cached_property
    def series(self) -> tuple[PriceSeries, ...]:
        return tuple(PriceSeries(code, self.start, self.prices[:, j]) for j, code in enumerate(self.currencies))

    @classmethod
    def from_series(cls, group: str, series: list[PriceSeries] | tuple[PriceSeries, ...]) -> "SeriesPanel":
        """Stack price series that share one span into a panel."""
        if not series:
            raise DataError(f"panel {group!r} has no series")
        first = series[0]
        for s in series[1:]:
            if (s.start, s.end) != (first.start, first.end):
                raise DataError(
                    f"panel {group!r}: series {s.currency} spans {s.start}..{s.end}, "
                    f"expected {first.start}..{first.end}"
                )
        prices = np.column_stack([s.prices() for s in series])
        return cls(group, first.start, tuple(s.currency for s in series), prices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesPanel)
            and (self.group, self.start, self.currencies) == (other.group, other.start, other.currencies)
            and np.array_equal(self.prices, other.prices)
        )

    def __len__(self) -> int:
        return len(self.currencies)

    @property
    def end(self) -> MonthStamp:
        return self.start.shift(self.prices.shape[0] - 1)

    def returns(self) -> np.ndarray:
        """The (months - 1, currencies) matrix of `to_returns` of every column."""
        return _ratio_returns(self.prices, self.currencies, self.start)


def _ratio_returns(prices: np.ndarray, codes, start: MonthStamp) -> np.ndarray:
    """Read-only returns down each column of an (n, k) price matrix whose first row is at `start`."""
    n = prices.shape[0]
    if n < 2:
        raise DataError(f"series {codes[0]} has {n} point(s); need at least 2 for returns")
    # price ratio minus one: algebraically (p_t - p_{t-1}) / p_{t-1}, but
    # better conditioned for reconstructing p_t as p_{t-1} * (1 + ret)
    with np.errstate(all="ignore"):
        rets = prices[1:] / prices[:-1] - 1.0
    finite = np.isfinite(rets)
    if not finite.all():
        col, row = (int(i) for i in np.argwhere(~finite.T)[0])  # the first currency, then its first month
        raise NumericError(
            f"return of {codes[col]} at {start.shift(row + 1)} is not finite: "
            f"price {float(prices[row + 1, col])!r} after {float(prices[row, col])!r}"
        )
    rets.flags.writeable = False
    return rets


def parse_panel_csv(text: str, group: str = "panel") -> SeriesPanel:
    """Parse a monthly price panel from CSV text.

    Parameters
    ----------
    text : str
        Document following the CSV contract in the module docstring.
    group : str
        Label attached to the resulting panel.

    Raises
    ------
    DataError
        On a malformed header, a non-numeric or non-positive price (the
        message names the stamp and column), or a calendar gap or
        duplicate stamp (the message names the offending month).
    """
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

    body = lines[1:]
    if not body:
        raise DataError("document has a header but no data rows")
    stamps, _, rows = zip(*[line.partition(",") for line in body])  # each line split once: its stamp, its cells
    n, k = len(body), len(codes)
    start = MonthStamp.parse(stamps[0]) if body[0].count(",") == k else None  # a bad first stamp raises as below
    # the whole stamp column against the texts of the months that follow the first, in one comparison, and the cell
    # count of every line; then numpy's C reader takes the cells, unless a line is blank, which it would skip
    fast = start is not None and list(stamps) == _stamp_texts(start, n) and {line.count(",") for line in body} == {k}
    try:
        prices = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if fast and all(map(str.strip, rows)) else None
    except ValueError:
        prices = None
    if prices is None or prices.shape != (n, k) or not (np.isfinite(prices) & (prices > 0.0)).all():
        prices = _parse_rows(body, codes)  # names the first fault, or reads cells only float() reads
    prices.flags.writeable = False  # the panel shares it
    return SeriesPanel(group, start, tuple(codes), prices)


def _parse_rows(body: list[str], codes: list[str]) -> np.ndarray:
    """The prices of the data lines read with `float`; line by line, the first bad cell count, stamp or price raises."""
    prices = []
    previous = None
    for i, line in enumerate(body):
        text, *cells = line.split(",")
        if len(cells) != len(codes):
            raise DataError(f"line {i + 2}: expected {len(codes) + 1} cells, got {len(cells) + 1}")
        stamp = MonthStamp.parse(text)
        step = 1 if previous is None else stamp.index() - previous.index()
        if step == 0:
            raise DataError(f"duplicate stamp {stamp}")
        if step < 0:
            raise DataError(f"stamps out of order at {stamp}")
        if step > 1:
            raise DataError(f"calendar gap: missing {previous.shift(1)}")
        previous = stamp
        for code, cell in zip(codes, cells):
            try:
                price = float(cell)
            except ValueError:
                raise DataError(f"non-numeric price {cell!r} at {stamp} in column {code}") from None
            if not 0.0 < price < np.inf:
                raise DataError(f"non-positive price {cell!r} at {stamp} in column {code}")
            prices.append(price)
    return np.array(prices).reshape(len(body), len(codes))


def _stamp_texts(start: MonthStamp, n: int) -> list[str]:
    """`str` of the n months from start; the list stops short after 9999-12, which no stamp text can follow."""
    years = [f"{year:04d}" for year in range(start.year, min(start.year + (start.month + n + 10) // 12, 10000))]
    months = [f"-{month:02d}" for month in range(1, 13)]
    return [year + month for year in years for month in months][start.month - 1:start.month - 1 + n]


def render_panel_csv(panel: SeriesPanel) -> str:
    """Serialize a panel back to the CSV contract (round-trips exactly)."""
    lines = ["date," + ",".join(panel.currencies)]
    for i, row in enumerate(panel.prices.tolist()):
        lines.append(f"{panel.start.shift(i)}," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def to_returns(series: PriceSeries) -> ReturnSeries:
    """Month-over-month arithmetic returns, stamped with the later month.

    ret_t = (price_t - price_{t-1}) / price_{t-1}. A return that is not
    finite (a price ratio that overflows) raises NumericError naming the
    currency and the month.
    """
    rets = _ratio_returns(series.prices()[:, None], (series.currency,), series.start)
    return ReturnSeries(series.currency, series.start.shift(1), rets[:, 0])


def slice_span(series: PriceSeries | SeriesPanel, start: MonthStamp, end: MonthStamp) -> PriceSeries | SeriesPanel:
    """Contiguous sub-series between two stamps, inclusive of both endpoints; of a panel, one slice of its rows."""
    if start > end:
        raise DataError(f"slice start {start} is after end {end}")
    panel = isinstance(series, SeriesPanel)
    if start < series.start or end > series.end:
        raise DataError(
            f"slice {start}..{end} out of range for series {series.currencies[0] if panel else series.currency} "
            f"({series.start}..{series.end})"
        )
    rows = slice(start.index() - series.start.index(), end.index() - series.start.index() + 1)
    if panel:
        return SeriesPanel(series.group, start, series.currencies, series.prices[rows])
    return PriceSeries(series.currency, start, series.prices()[rows])


def align_panel(series: list[PriceSeries] | tuple[PriceSeries, ...], group: str = "panel") -> SeriesPanel:
    """Truncate every series to the intersection of all spans.

    Raises DataError when the spans do not overlap or the overlap is
    shorter than two months.
    """
    if not series:
        raise DataError("align_panel needs at least one series")
    start = max(s.start for s in series)
    end = min(s.end for s in series)
    overlap = end.index() - start.index() + 1
    if overlap <= 0:
        raise DataError("series spans do not overlap")
    if overlap < 2:
        raise DataError(f"overlapping span {start}..{end} is shorter than 2 months")
    prices = np.column_stack([s.prices()[start.index() - s.start.index():][:overlap] for s in series])
    return SeriesPanel(group, start, tuple(s.currency for s in series), prices)


def cumulative_growth(series: PriceSeries) -> float:
    """Last price divided by first price."""
    if len(series) < 2:
        raise DataError(f"series {series.currency} has {len(series)} point(s); need at least 2")
    prices = series.prices()
    return float(prices[-1] / prices[0])
