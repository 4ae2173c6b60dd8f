"""Domain types for monthly price panels plus ingestion and return arithmetic.

A price series is a contiguous run of end-of-month observations for one
currency denomination. Stamps carry year and month only; there is no day
component. Gaps and duplicate months are hard errors, never interpolated,
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

import numpy as np

from .errors import DataError

_STAMP_RE = re.compile(r"^(\d{4})-(\d{2})$")
_CODE_RE = re.compile(r"^[A-Za-z]{3}$")


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

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


@dataclass(frozen=True)
class PricePoint:
    """One end-of-month price observation (currency units per unit of asset)."""

    stamp: MonthStamp
    price: float

    def __post_init__(self) -> None:
        price = float(self.price)
        if not np.isfinite(price) or price <= 0.0:
            raise DataError(f"price at {self.stamp} must be positive and finite, got {self.price!r}")
        object.__setattr__(self, "price", price)


@dataclass(frozen=True)
class ReturnPoint:
    """One month-over-month return, stamped with the later month."""

    stamp: MonthStamp
    value: float


def _check_currency(code: str) -> None:
    if not _CODE_RE.match(code):
        raise DataError(f"currency code must be three letters, got {code!r}")


def _check_contiguous(stamps, label: str) -> None:
    for prev, cur in zip(stamps, stamps[1:]):
        step = cur.index() - prev.index()
        if step == 1:
            continue
        if step == 0:
            raise DataError(f"duplicate stamp {cur} in {label}")
        if step < 0:
            raise DataError(f"stamps out of order at {cur} in {label}")
        raise DataError(f"calendar gap in {label}: missing {prev.shift(1)}")


@dataclass(frozen=True)
class PriceSeries:
    """A contiguous monthly price series for one currency denomination."""

    currency: str
    points: tuple[PricePoint, ...]

    def __post_init__(self) -> None:
        _check_currency(self.currency)
        if not self.points:
            raise DataError(f"series {self.currency} has no observations")
        _check_contiguous([p.stamp for p in self.points], f"series {self.currency}")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def start(self) -> MonthStamp:
        return self.points[0].stamp

    @property
    def end(self) -> MonthStamp:
        return self.points[-1].stamp

    def stamps(self) -> tuple[MonthStamp, ...]:
        return tuple(p.stamp for p in self.points)

    def prices(self) -> np.ndarray:
        return np.array([p.price for p in self.points], dtype=float)


@dataclass(frozen=True)
class ReturnSeries:
    """Month-over-month arithmetic returns derived from a PriceSeries."""

    currency: str
    points: tuple[ReturnPoint, ...]

    def __post_init__(self) -> None:
        _check_currency(self.currency)
        if not self.points:
            raise DataError(f"return series {self.currency} has no observations")
        _check_contiguous([p.stamp for p in self.points], f"return series {self.currency}")

    def __len__(self) -> int:
        return len(self.points)

    def stamps(self) -> tuple[MonthStamp, ...]:
        return tuple(p.stamp for p in self.points)

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points], dtype=float)


@dataclass(frozen=True)
class SeriesPanel:
    """Several price series sharing one contiguous stamp span."""

    group: str
    series: tuple[PriceSeries, ...]

    def __post_init__(self) -> None:
        if not self.series:
            raise DataError(f"panel {self.group!r} has no series")
        codes = [s.currency for s in self.series]
        if len(set(codes)) != len(codes):
            raise DataError(f"panel {self.group!r} has duplicate currency codes: {codes}")
        first = self.series[0]
        for s in self.series[1:]:
            if s.start != first.start or s.end != first.end:
                raise DataError(
                    f"panel {self.group!r}: series {s.currency} spans {s.start}..{s.end}, "
                    f"expected {first.start}..{first.end}"
                )

    def __len__(self) -> int:
        return len(self.series)

    @property
    def currencies(self) -> tuple[str, ...]:
        return tuple(s.currency for s in self.series)

    @property
    def start(self) -> MonthStamp:
        return self.series[0].start

    @property
    def end(self) -> MonthStamp:
        return self.series[0].end


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

    stamps: list[MonthStamp] = []
    columns: list[list[float]] = [[] for _ in codes]
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        stamp = MonthStamp.parse(cells[0])
        if stamps:
            step = stamp.index() - stamps[-1].index()
            if step == 0:
                raise DataError(f"duplicate stamp {stamp}")
            if step < 0:
                raise DataError(f"stamps out of order at {stamp}")
            if step > 1:
                raise DataError(f"calendar gap: missing {stamps[-1].shift(1)}")
        stamps.append(stamp)
        for code, col, cell in zip(codes, columns, cells[1:]):
            try:
                price = float(cell)
            except ValueError:
                raise DataError(f"non-numeric price {cell!r} at {stamp} in column {code}") from None
            if not np.isfinite(price) or price <= 0.0:
                raise DataError(f"non-positive price {cell!r} at {stamp} in column {code}")
            col.append(price)

    if not stamps:
        raise DataError("document has a header but no data rows")
    series = tuple(
        PriceSeries(code, tuple(PricePoint(s, p) for s, p in zip(stamps, col)))
        for code, col in zip(codes, columns)
    )
    return SeriesPanel(group, series)


def render_panel_csv(panel: SeriesPanel) -> str:
    """Serialize a panel back to the CSV contract (round-trips exactly)."""
    lines = ["date," + ",".join(panel.currencies)]
    stamps = panel.series[0].stamps()
    for i, stamp in enumerate(stamps):
        row = ",".join(repr(s.points[i].price) for s in panel.series)
        lines.append(f"{stamp},{row}")
    return "\n".join(lines) + "\n"


def to_returns(series: PriceSeries) -> ReturnSeries:
    """Month-over-month arithmetic returns, stamped with the later month.

    ret_t = (price_t - price_{t-1}) / price_{t-1}
    """
    if len(series) < 2:
        raise DataError(f"series {series.currency} has {len(series)} point(s); need at least 2 for returns")
    prices = series.prices()
    # price ratio minus one: algebraically (p_t - p_{t-1}) / p_{t-1}, but
    # better conditioned for reconstructing p_t as p_{t-1} * (1 + ret)
    rets = prices[1:] / prices[:-1] - 1.0
    points = tuple(
        ReturnPoint(p.stamp, float(r)) for p, r in zip(series.points[1:], rets)
    )
    return ReturnSeries(series.currency, points)


def slice_span(series: PriceSeries, start: MonthStamp, end: MonthStamp) -> PriceSeries:
    """Contiguous sub-series between two stamps, inclusive of both endpoints."""
    if start > end:
        raise DataError(f"slice start {start} is after end {end}")
    if start < series.start or end > series.end:
        raise DataError(
            f"slice {start}..{end} out of range for series {series.currency} "
            f"({series.start}..{series.end})"
        )
    lo = start.index() - series.start.index()
    hi = end.index() - series.start.index() + 1
    return PriceSeries(series.currency, series.points[lo:hi])


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
    return SeriesPanel(group, tuple(slice_span(s, start, end) for s in series))


def cumulative_growth(series: PriceSeries) -> float:
    """Last price divided by first price."""
    if len(series) < 2:
        raise DataError(f"series {series.currency} has {len(series)} point(s); need at least 2")
    return series.points[-1].price / series.points[0].price
