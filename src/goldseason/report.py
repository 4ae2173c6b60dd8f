"""Panel-level analysis assembly and rendering (markdown, JSON, chart CSVs).

Formatting conventions: percent values with 2 decimals, seasonal indices
with 4, correlations with 2; a star marks cells whose test clears the
configured alpha. Output is deterministic for fixed inputs, so reports can
be compared byte for byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .decompose import (
    _NEUTRAL,
    MEDIAN,
    MULTIPLICATIVE,
    DecompositionResult,
    PanelDecomposition,
    SeasonalIndices,
    _deviation_percent,
    decompose,
    seasonal_deviation_percent,
)
from .errors import DataError
from .series import _BLOCK, MonthStamp, SeriesPanel, _Record, _row_blocks
from .stats import (
    PRICES,
    RETURNS,
    CorrelationMatrix,
    MonthlyReturnSummary,
    MonthlyTests,
    _check_alpha,
    correlation_matrix,
    monthly_tests,
)

SIGN_POSITIVE = "+"
SIGN_NEGATIVE = "-"
SIGN_NEUTRAL = "0"

FORMAT_MARKDOWN = "md"
FORMAT_JSON = "json"

RETURNS_SECTION = "returns"
CORRELATIONS_SECTION = "correlations"
DECOMPOSITION_SECTION = "decomposition"
REPORT = (RETURNS_SECTION, CORRELATIONS_SECTION, DECOMPOSITION_SECTION)


class ReportConfig(_Record):
    """Knobs for one report run; defaults mirror the CLI defaults."""

    model: str = MULTIPLICATIVE
    aggregator: str = MEDIAN
    alpha: float = 0.05
    quorum: int | None = None  # None means unanimity
    fmt: str = FORMAT_MARKDOWN

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if self.fmt not in (FORMAT_MARKDOWN, FORMAT_JSON):
            raise DataError(f"format must be {FORMAT_MARKDOWN!r} or {FORMAT_JSON!r}, got {self.fmt!r}")


def classify_month_signs(
    indices_by_currency: Mapping[str, SeasonalIndices],
    quorum: int | None = None,
) -> tuple[str, ...]:
    """Consensus +/0/- label per month across currencies.

    A month is "+" when at least `quorum` currencies sit above neutral
    (1 for multiplicative indices, 0 for additive), "-" when at least
    `quorum` sit below, and "0" otherwise. Exactly-neutral indices count
    toward neither side. The default quorum is unanimity.
    """
    if not indices_by_currency:
        raise DataError("sign classification needs at least one currency")
    items = list(indices_by_currency.values())
    models = {ind.model for ind in items}
    if len(models) != 1:
        raise DataError(f"mixed decomposition models: {sorted(models)}")
    return _month_signs(items[0].model, np.array([ind.values for ind in items]).T, quorum)


def _month_signs(model: str, indices: np.ndarray, quorum: int | None) -> tuple[str, ...]:
    """`classify_month_signs` of a (12, k) array of one model's indices, one column per currency."""
    n = indices.shape[1]
    if quorum is None:
        quorum = n
    if not 1 <= quorum <= n:
        raise DataError(f"quorum must be in 1..{n}, got {quorum}")
    above = (indices > _NEUTRAL[model]).sum(axis=1) >= quorum
    below = (indices < _NEUTRAL[model]).sum(axis=1) >= quorum
    return tuple(np.where(above, SIGN_POSITIVE, np.where(below, SIGN_NEGATIVE, SIGN_NEUTRAL)).tolist())


class PanelAnalysis(_Record):
    """The sections of one panel's analysis, as arrays with one column per currency; a section not computed is None.

    `summaries` and `decompositions` build per-currency records on request; they and `signs` are empty if not computed.
    """

    group: str
    span: tuple[MonthStamp, MonthStamp]
    currencies: tuple[str, ...]
    sections: tuple[str, ...]
    alpha: float
    model: str
    aggregator: str
    monthly: MonthlyTests | None
    price_correlation: CorrelationMatrix | None
    return_correlation: CorrelationMatrix | None
    decomposition: PanelDecomposition | None
    signs: tuple[str, ...]

    @property
    def summaries(self) -> tuple[MonthlyReturnSummary, ...]:
        return self.monthly.summaries(self.currencies) if self.monthly is not None else ()

    @property
    def decompositions(self) -> tuple[tuple[str, DecompositionResult], ...]:
        return tuple(zip(self.currencies, self.decomposition.results)) if self.decomposition is not None else ()


def analyze_panel(panel: SeriesPanel, config: ReportConfig, sections: Sequence[str] = REPORT) -> PanelAnalysis:
    """Compute the requested sections (a subset of `REPORT`) of one panel's analysis.

    Correlation matrices need at least two series. Requested alone they
    fail on a single-currency panel; next to other sections they are
    omitted rather than failing the whole report.
    """
    if not sections or not set(sections) <= set(REPORT):
        raise DataError(f"sections must be a non-empty subset of {REPORT}, got {tuple(sections)}")
    sections = tuple(name for name in REPORT if name in sections)
    monthly = price_corr = return_corr = decomposition = None
    if RETURNS_SECTION in sections:
        monthly = monthly_tests(panel.returns(), panel.start.shift(1), config.alpha)
    if CORRELATIONS_SECTION in sections and (len(panel) >= 2 or len(sections) == 1):
        price_corr = correlation_matrix(panel, PRICES, config.alpha)
        return_corr = correlation_matrix(panel, RETURNS, config.alpha)
    signs = ()
    if DECOMPOSITION_SECTION in sections:
        decomposition = decompose(panel, model=config.model, aggregator=config.aggregator)
        signs = _month_signs(config.model, decomposition.indices, config.quorum)
    return PanelAnalysis(
        group=panel.group, span=(panel.start, panel.end), currencies=panel.currencies, sections=sections,
        alpha=config.alpha, model=config.model, aggregator=config.aggregator, monthly=monthly,
        price_correlation=price_corr, return_correlation=return_corr, decomposition=decomposition, signs=signs,
    )


def render_report(panel: SeriesPanel, config: ReportConfig) -> str:
    """Full report for a panel in the configured format."""
    analysis = analyze_panel(panel, config)
    return render_json(analysis) if config.fmt == FORMAT_JSON else render_markdown(analysis)


# ---------------------------------------------------------------- markdown

def _fmt_pct(value: float, significant: bool) -> str:
    percent = value * 100.0
    # a float too large for its percent to be finite is a whole number, so integers give it exactly
    text = f"{percent:.2f}" if math.isfinite(percent) else f"{int(value) * 100}.00"
    return text + "%" + ("*" if significant else "")

def _fmt_metric(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.6g}"


def _markdown_table(rows: Sequence[Sequence[str]]) -> str:
    """A markdown table: the header row, its `| --- |` rule, then the body rows; an empty cell is one space."""
    lines = ["|" + "".join(f" {cell} |" if cell else " |" for cell in row) for row in rows]
    lines.insert(1, "|" + " --- |" * len(rows[0]))
    return "\n".join(lines)


def markdown_returns_section(tests: MonthlyTests, codes: Sequence[str]) -> str:
    rows = zip([*range(1, 13), "Average"], tests.means.tolist(), (tests.p_values < tests.alpha).tolist())
    table = [["Month", *codes]] + [[str(label), *map(_fmt_pct, means, stars)] for label, means, stars in rows]
    level = f"{100 * (1 - tests.alpha):g}"
    return (f"## Average monthly returns (%)\n\n{_markdown_table(table)}\n\n"
            f"\\* mean differs from zero at the {level}% level (two-sided one-sample t-test)")


def _markdown_matrix(matrix: CorrelationMatrix, title: str) -> str:
    rows = zip(matrix.labels, matrix.values.tolist(), matrix.significant.tolist())
    table = [["", *matrix.labels]] + [
        [label, *(f"{value:.2f}" + ("*" if star else "") for value, star in zip(values, stars))]
        for label, values, stars in rows]
    return f"### {title} (n = {matrix.n})\n\n{_markdown_table(table)}"


def markdown_correlation_section(price_corr: CorrelationMatrix, return_corr: CorrelationMatrix) -> str:
    parts = [
        "## Correlation matrices",
        "",
        _markdown_matrix(price_corr, "Prices"),
        "",
        _markdown_matrix(return_corr, "Returns"),
        "",
        f"\\* correlation differs from zero at the {100 * (1 - price_corr.alpha):g}% level",
    ]
    return "\n".join(parts)


def markdown_decomposition_section(analysis: PanelAnalysis) -> str:
    decomposition = analysis.decomposition
    table = [["Month", *analysis.currencies, "Sign"]]
    for month, (values, sign) in enumerate(zip(decomposition.indices.tolist(), analysis.signs), start=1):
        table.append([str(month), *(f"{value:.4f}" for value in values), sign])
    metrics = np.concatenate((decomposition.accuracy, decomposition.trend)).tolist()
    for name, values in zip(("MAPE", "MAD", "MSD", "Constant", "Slope"), metrics):
        table.append([name, *map(_fmt_metric, values), ""])
    title = f"## Seasonal decomposition ({analysis.model}, {analysis.aggregator} aggregation)"
    return f"{title}\n\n{_markdown_table(table)}"


def render_markdown(analysis: PanelAnalysis) -> str:
    """Markdown of the sections the analysis holds, under a title when there are several."""
    lines = []
    if len(analysis.sections) > 1:
        start, end = analysis.span
        lines += [
            f"# Seasonal analysis: {analysis.group}",
            "",
            f"Span {start}..{end}, {len(analysis.currencies)} currencies, alpha {analysis.alpha:g}.",
            "",
        ]
    if analysis.monthly is not None:
        lines += [markdown_returns_section(analysis.monthly, analysis.currencies), ""]
    if analysis.price_correlation is not None:
        lines += [markdown_correlation_section(analysis.price_correlation, analysis.return_correlation), ""]
    if analysis.decomposition is not None:
        lines += [markdown_decomposition_section(analysis), ""]
    return "\n".join(lines)


# -------------------------------------------------------------------- JSON

def render_json(analysis: PanelAnalysis) -> str:
    """JSON of the sections the analysis holds; several sections also carry the span and period.

    The text is `json.dumps(payload, indent=2)` plus a newline, for the payload `tests/reference_payload.py` builds.
    """
    return "".join(json_pieces(analysis))


def json_pieces(analysis: PanelAnalysis) -> Iterator[str]:
    """The text of `render_json` in pieces, in order; each section is formatted once the pieces before it are taken."""
    writer, sections, codes = _JsonWriter(), analysis.sections, analysis.currencies
    several, dumps = len(sections) > 1, writer.dumps
    items = [("group", dumps(analysis.group))]
    if several:
        start, end = analysis.span
        items.append(("span", writer.object([("start", f'"{start}"'), ("end", f'"{end}"')], 2)))
    if RETURNS_SECTION in sections or CORRELATIONS_SECTION in sections:
        items.append(("alpha", dumps(analysis.alpha)))
    if DECOMPOSITION_SECTION in sections:
        items.append(("model", dumps(analysis.model)))
        if several:
            items.append(("period", "12"))
        items.append(("aggregator", dumps(analysis.aggregator)))
    if RETURNS_SECTION in sections:
        items.append(("returns", writer.returns(analysis.monthly, codes)))
    if CORRELATIONS_SECTION in sections:
        matrices = [(PRICES, analysis.price_correlation), (RETURNS, analysis.return_correlation)]
        items.append(("correlations", writer.object([(basis, writer.correlation(m)) for basis, m in matrices], 2)))
    if DECOMPOSITION_SECTION in sections:
        d = analysis.decomposition  # its arrays: it refers to the panel's prices, which go before the pieces are taken
        items.append(("decomposition", writer.decomposition(d.model, d.indices, d.trend, d.accuracy, codes)))
        items.append(("signs", _json_list(map(dumps, analysis.signs), 2)))
    return writer.object(items, 1, "}\n")


def _json_list(texts, level: int) -> str:
    """A non-empty JSON array of value texts whose items sit at nesting depth `level`."""
    inner = "\n" + "  " * level
    return "[" + inner + ("," + inner).join(texts) + inner[:-2] + "]"


class _JsonWriter:
    """The per-currency sections and the matrices of `render_json`, in pieces of the bytes `json.dumps` gives them.

    Values are formatted by one `json.dumps` call per run of `_BLOCK` values,
    and fill the slots of one record template per section. A k x k matrix is
    written straight from its cells, and each distinct bit pattern in it is
    formatted once.
    """

    def __init__(self) -> None:
        import json  # here, not with the module: a markdown report never loads it

        self.dumps, self.key = json.dumps, json.encoder.encode_basestring_ascii

    def object(self, items, level: int, close: str = "}") -> Iterator[str]:
        """The pieces of a non-empty JSON object of (key, text or iterable of pieces) pairs, keys at depth `level`."""
        inner = "\n" + "  " * level
        separator = "{" + inner
        for key, value in items:
            yield separator + self.key(key) + ": "
            yield from (value,) if isinstance(value, str) else value
            separator = "," + inner
        yield inner[:-2] + close

    def texts(self, array: np.ndarray) -> np.ndarray:
        """The text of each value of a non-empty array, in an object array of its shape."""
        values, texts = array.ravel(), []
        for first in range(0, values.size, _BLOCK):
            texts += self.dumps(values[first:first + _BLOCK].tolist(), separators=("\n", ": "))[1:-1].split("\n")
        return np.array(texts, dtype=object).reshape(array.shape)

    def returns(self, tests: MonthlyTests, codes: Sequence[str]) -> Iterator[str]:
        """The returns section: per currency, its twelve calendar-month records and the overall one."""
        record = [(name, "%s") for name in ("mean", "n", "t_stat", "p_value", "significant")]
        months = _json_list(["".join(self.object([("month", str(month))] + record, 5)) for month in range(1, 13)], 4)
        overall = self.object([("month", "null")] + record, 4)
        template = "".join(self.object([("per_month", months), ("overall", overall)], 3))
        cells = np.empty((5, 13, len(codes)), dtype=object)
        cells[0], cells[2], cells[3] = self.texts(np.stack((tests.means, tests.t_stats, tests.p_values)))
        cells[1] = tests.counts.astype(str)[:, None]
        cells[4] = np.where(tests.p_values < tests.alpha, "true", "false")
        rows = cells.transpose(2, 1, 0).reshape(len(codes), -1).tolist()
        yield from self.object(((code, template % tuple(row)) for code, row in zip(codes, rows)), 2)

    def correlation(self, matrix: CorrelationMatrix | None) -> str | Iterator[str]:
        if matrix is None:
            return "null"
        items = [("basis", self.dumps(matrix.basis)), ("labels", _json_list(map(self.dumps, matrix.labels), 4)),
                 ("n", self.dumps(matrix.n))]
        items += [(name, self.matrix(getattr(matrix, name), "\n" + "  " * 4))
                  for name in ("values", "p_values", "significant")]
        return self.object(items, 3)

    def matrix(self, array: np.ndarray, inner: str) -> Iterator[str]:
        """The pieces, one per row, of a non-empty 2-D array whose rows' items sit on lines indented like `inner`."""
        distinct, cells = np.unique(array.view(f"u{array.itemsize}").ravel(), return_inverse=True)
        texts = self.texts(distinct.view(array.dtype))
        cell_separator, separator = "," + inner + "  ", "[" + inner
        for _, rows in _row_blocks(cells.reshape(array.shape)):
            for row in texts[rows].tolist():
                yield separator + "[" + inner + "  " + cell_separator.join(row) + inner + "]"
                separator = "," + inner
        yield inner[:-2] + "]"

    def decomposition(self, model: str, indices, trend, accuracy, codes: Sequence[str]) -> Iterator[str]:
        """The decomposition section from `PanelDecomposition` arrays: per currency, indices, trend and metrics."""
        slots = _json_list(["%s"] * 12, 4)
        template = "".join(self.object([("model", "%s"), ("indices", slots), ("deviation_percent", slots)]
                                        + [(name, "%s") for name in ("constant", "slope", "mape", "mad", "msd")], 3))
        values = self.texts(np.concatenate((indices, _deviation_percent(model, indices), trend, accuracy)))
        values[-3:][np.isnan(accuracy)] = "null"
        columns = np.concatenate((np.full((1, len(codes)), self.dumps(model), dtype=object), values))
        yield from self.object(((code, template % tuple(column)) for code, column in zip(codes, columns.T.tolist())),
                                2)


# -------------------------------------------------------------- chart data

def emit_chart_data(
    group: str,
    results: Mapping[str, DecompositionResult],
    directory: Path | str,
) -> Path:
    """Write one CSV of per-month percent deviations for a currency group.

    Header is ``month,<CODE>,...`` followed by 12 rows with values at 4
    decimal places, one column per currency in mapping order. The file is
    named after the group, so a group with a path separator is rejected
    before anything is written.
    """
    if not results:
        raise DataError("chart data needs at least one decomposition result")
    deviations = np.array([seasonal_deviation_percent(result.indices) for result in results.values()]).T
    return _write_chart(group, list(results), deviations, directory)


def _write_chart(group: str, codes: Sequence[str], deviations: np.ndarray, directory: Path | str) -> Path:
    """`emit_chart_data` of a (12, k) array of percent deviations, one column per code."""
    name = f"{group}_seasonal_deviation.csv"
    if Path(name).name != name:
        raise DataError(f"group {group!r} cannot name a chart file: it must be a single file-name component")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["month," + ",".join(codes)]
    for month, row in enumerate(deviations.tolist(), start=1):
        lines.append(f"{month}," + ",".join(f"{value:.4f}" for value in row))
    path = directory / name
    _write_text(path, ["\n".join(lines) + "\n"])
    return path


def _write_text(out: Path | str, pieces: Iterable[str]) -> None:
    """Write text pieces to the file `out` through a temporary file beside it, which replaces it once all are written.

    A write that fails removes the temporary file, leaves `out` as it was, and raises an OSError naming `out`. A
    symbolic link at `out` stays, and the file it names is replaced; a path that exists and is not a regular file,
    such as a device, is written directly.
    """
    import os

    direct = os.path.exists(out) and not os.path.isfile(out)  # through a symbolic link, as `open` goes
    path = os.path.realpath(out) if not direct and os.path.islink(out) else os.fspath(out)
    temporary = path if direct else os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as stream:
            stream.writelines(pieces)
        os.replace(temporary, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(out)) from None
    finally:
        if not direct and os.path.lexists(temporary):  # it is gone once it has replaced `out`
            os.unlink(temporary)
