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
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, NumericError

_STAMP_RE = re.compile(r"^(\d{4})-(\d{2})$")
_CODE_RE = re.compile(r"[A-Za-z]{3}")
_MISSING = object()  # the default of a record field that has none
_BLOCK = 1 << 14  # elements a transient block of a panel-wide computation may hold (128 KiB of doubles)
_CHUNK = 1 << 16  # characters of whole lines a file is read in at a time


class _Record:
    """A frozen record whose `_fields` are its annotated names, after its bases'; no method is compiled per class.

    Fields are given by position or keyword, default to the class attribute of the same name, and are fixed once
    `__post_init__` has run. Records compare and hash as the tuple of their fields, unless a class sets `__eq__`
    (as `_records_equal`) or `eq=False` (identity).
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._fields += tuple(name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._fields)
        cls._defaults = tuple(getattr(cls, name, _MISSING) for name in cls._fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):  # the fields after the positional ones: by keyword, else default
            args = (*args, *map(kwargs.pop, self._fields[len(args):], self._defaults[len(args):]))
            if kwargs or len(args) > len(self._fields) or any(arg is _MISSING for arg in args):
                raise TypeError(f"{type(self).__name__} takes each of the fields {self._fields} once")
        for name, value in zip(self._fields, args):  # not through `__dict__`, which would slow every read of a field
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check, and convert through `object.__setattr__`, the fields just set."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))


class MonthStamp(_Record):
    """A calendar month, ordered lexicographically by (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month}")

    def __lt__(self, other):  # `>` and `>=` are these two reflected
        return self.index() < other.index() if type(other) is MonthStamp else NotImplemented

    def __le__(self, other):
        return self.index() <= other.index() if type(other) is MonthStamp else NotImplemented

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


def _read_only(values, ndim: int, label: str, dtype=float) -> np.ndarray:
    """An array of `dtype` nothing can write through: read-only input is shared, anything else copied."""
    array = np.asarray(values, dtype=dtype)
    if array.ndim != ndim:
        raise DataError(f"{label} must be a {ndim}-D array, got shape {array.shape}")
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise DataError(f"{what} holds a non-finite value")


def _unit_scale(values: np.ndarray, axis: int, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each slice along `axis` times the power of two that brings its largest magnitude below 1, and the exponents.

    The exponents keep `axis` as a length-1 dimension. The scaling is exact short of the subnormal range, so a sum
    of scaled values, scaled back by `np.ldexp`, is the plain sum where that is finite, and is finite for finite values.
    """
    _, exponents = np.frexp(np.maximum(values.max(axis=axis, keepdims=True), -values.min(axis=axis, keepdims=True)))
    return np.ldexp(values, -exponents, out=out), exponents


def _row_blocks(x: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Runs of consecutive rows of a 2-D array, each of at most `_BLOCK` elements or else one row, as (slice, rows).

    The rows come C-contiguous, copied unless they already are, so every reduction along them sees one layout.
    """
    step = max(1, _BLOCK // x.shape[1])
    for first in range(0, x.shape[0], step):
        rows = slice(first, first + step)
        yield rows, np.ascontiguousarray(x[rows])


def _records_equal(self, other) -> bool:
    """`==` of records holding arrays, which are then unhashable: one type, equal fields, arrays by `np.array_equal`."""
    return type(other) is type(self) and all(
        np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
        for mine, theirs in zip(self._values(), other._values())
    )


class _MonthlyColumn(_Record):
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

    __eq__ = _records_equal

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


class SeriesPanel(_Record):
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
        prices.flags.writeable = False  # the panel shares it
        return cls(group, first.start, tuple(s.currency for s in series), prices)

    __eq__ = _records_equal

    def __len__(self) -> int:
        return len(self.currencies)

    @property
    def end(self) -> MonthStamp:
        return self.start.shift(self.prices.shape[0] - 1)

    def returns(self) -> np.ndarray:
        """The read-only (months - 1, currencies) matrix of `to_returns` of every column."""
        rets = _ratio_returns(self.prices, self.currencies, self.start)
        rets.flags.writeable = False
        return rets


def _ratio_returns(prices: np.ndarray, codes, start: MonthStamp) -> np.ndarray:
    """A new array of the returns down each column of an (n, k) price matrix whose first row is at `start`."""
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
    return rets


def parse_panel_csv(text, group: str = "panel") -> SeriesPanel:
    """Parse a monthly price panel from CSV text, or from the file at a path.

    Parameters
    ----------
    text : str or path-like
        Document following the CSV contract in the module docstring, or the
        path of a file holding it, read a chunk of lines at a time.
    group : str
        Label attached to the resulting panel.

    Raises
    ------
    DataError
        On a malformed header, a non-numeric or non-positive price (the
        message names the stamp and column), or a calendar gap or
        duplicate stamp (the message names the offending month); for a
        file, on a byte that is not UTF-8 (the message gives its offset).
    """
    if not isinstance(text, str):
        return _read_panel_csv(text, group)
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
    # a first line with another cell count has no stamp here: the row parser raises for it
    start = MonthStamp.parse(body[0].partition(",")[0]) if body[0].count(",") == len(codes) else None
    prices = None if start is None else _loaded_prices([body], start, len(codes))
    if prices is None:
        prices = _parse_rows(body, codes)  # names the first fault, or reads cells only float() reads
    prices.flags.writeable = False  # the panel shares it
    return SeriesPanel(group, start, tuple(codes), prices)


def _loaded_prices(chunks: Iterable[list[str]], start: MonthStamp, k: int) -> np.ndarray | None:
    """The prices of chunks of data lines by numpy's C reader, or None if it raises or a check or a price fails.

    Each chunk's stamps are compared with the texts of the months that run on from `start` in one comparison. The
    reader takes the cells as each line is reached, unless they are blank, which it would skip.
    """

    def cells():
        rows = 0
        for lines in chunks:
            if ([line[:8] for line in lines] != _stamp_texts(start.shift(rows), len(lines))
                    or not all(len(line.rstrip()) > 8 for line in lines)):
                raise ValueError("a stamp out of sequence, or a line with blank cells")
            rows += len(lines)
            yield from (line[8:] for line in lines)

    try:
        prices = np.loadtxt(cells(), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # also a chunk of a file that is not UTF-8, or that holds a line `str.splitlines` would split
        return None
    return prices if prices.shape[1] == k and 0.0 < prices.min() and prices.max() < np.inf else None


def _read_panel_csv(path, group: str) -> SeriesPanel:
    """`parse_panel_csv` of a file read `_CHUNK` characters of lines at a time, or else read whole as text."""

    def chunks(stream, lines):
        while lines:
            following = stream.readlines(_CHUNK)
            while not following and lines and not lines[-1].strip():  # the blank lines that end the file
                lines.pop()
            text = "".join(lines)  # `str.splitlines` also breaks lines at these, and at some characters beyond ASCII
            if (not text.isascii() or any(char in text for char in "\x0b\x0c\x1c\x1d\x1e")) and (
                    len(text.splitlines()) != len(lines)):
                raise ValueError("a line holds a character that str.splitlines breaks lines at")
            yield lines
            lines = following

    with open(path, encoding="utf-8") as stream:
        try:
            header, *lines = stream.readlines(_CHUNK) or ["\n"]  # an empty file is parsed as text below
            date, *codes = (cell.strip() for cell in header.removeprefix("\ufeff").split(","))
            if len(header.splitlines()) == 1 and date == "date" and lines:
                start = MonthStamp.parse(lines[0][:7])
                prices = _loaded_prices(chunks(stream, lines), start, len(codes))
                if prices is not None:
                    prices.flags.writeable = False  # the panel shares it
                    return SeriesPanel(group, start, tuple(codes), prices)
        except (UnicodeDecodeError, DataError):  # the text names the fault
            pass
    with open(path, "rb") as stream:
        try:
            text = stream.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}") from None
    return parse_panel_csv(text, group)


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
    """`str` of the n months from start, each with a comma; the list stops short after 9999-12, as no stamp follows."""
    years = [f"{year:04d}" for year in range(start.year, min(start.year + (start.month + n + 10) // 12, 10000))]
    months = [f"-{month:02d}," for month in range(1, 13)]
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
    if start > end:
        raise DataError("series spans do not overlap")
    if start == end:
        raise DataError(f"overlapping span {start}..{end} is shorter than 2 months")
    return SeriesPanel.from_series(group, [slice_span(s, start, end) for s in series])


def cumulative_growth(series: PriceSeries) -> float:
    """Last price divided by first price; a ratio that is not finite raises NumericError naming the currency."""
    if len(series) < 2:
        raise DataError(f"series {series.currency} has {len(series)} point(s); need at least 2")
    first, last = series.prices()[[0, -1]]
    with np.errstate(all="ignore"):  # a ratio that is not finite is rejected below
        growth = float(last / first)
    if not np.isfinite(growth):
        raise NumericError(f"growth of {series.currency} is not finite: price {float(last)!r} over {float(first)!r}")
    return growth
