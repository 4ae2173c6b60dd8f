"""Panel-level analysis assembly and rendering (markdown, JSON, chart CSVs).

Formatting conventions: percent values with 2 decimals, seasonal indices
with 4, correlations with 2; a star marks cells whose test clears the
configured alpha. Output is deterministic for fixed inputs, so reports can
be compared byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .decompose import (
    MEDIAN,
    MULTIPLICATIVE,
    DecompositionResult,
    SeasonalIndices,
    decompose,
    seasonal_deviation_percent,
)
from .errors import DataError
from .series import MonthStamp, SeriesPanel
from .stats import (
    PRICES,
    RETURNS,
    CorrelationMatrix,
    MonthlyReturnSummary,
    _check_alpha,
    correlation_matrix,
    panel_monthly_mean_returns,
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


@dataclass(frozen=True)
class ReportConfig:
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
    n = len(items)
    if quorum is None:
        quorum = n
    if not 1 <= quorum <= n:
        raise DataError(f"quorum must be in 1..{n}, got {quorum}")
    values = np.array([ind.values for ind in items])  # currencies x months
    neutral = 1.0 if items[0].model == MULTIPLICATIVE else 0.0
    above = (values > neutral).sum(axis=0) >= quorum
    below = (values < neutral).sum(axis=0) >= quorum
    return tuple(np.where(above, SIGN_POSITIVE, np.where(below, SIGN_NEGATIVE, SIGN_NEUTRAL)).tolist())


@dataclass(frozen=True)
class PanelAnalysis:
    """The sections of one panel's analysis; a section not computed is empty."""

    group: str
    span: tuple[MonthStamp, MonthStamp]
    currencies: tuple[str, ...]
    sections: tuple[str, ...]
    alpha: float
    model: str
    aggregator: str
    summaries: tuple[MonthlyReturnSummary, ...]
    price_correlation: CorrelationMatrix | None
    return_correlation: CorrelationMatrix | None
    decompositions: tuple[tuple[str, DecompositionResult], ...]
    signs: tuple[str, ...]


def analyze_panel(panel: SeriesPanel, config: ReportConfig, sections: Sequence[str] = REPORT) -> PanelAnalysis:
    """Compute the requested sections (a subset of `REPORT`) of one panel's analysis.

    Correlation matrices need at least two series. Requested alone they
    fail on a single-currency panel; next to other sections they are
    omitted rather than failing the whole report.
    """
    if not sections or not set(sections) <= set(REPORT):
        raise DataError(f"sections must be a non-empty subset of {REPORT}, got {tuple(sections)}")
    sections = tuple(name for name in REPORT if name in sections)
    summaries = ()
    if RETURNS_SECTION in sections:
        summaries = panel_monthly_mean_returns(panel, config.alpha)
    price_corr = return_corr = None
    if CORRELATIONS_SECTION in sections and (len(panel) >= 2 or len(sections) == 1):
        price_corr = correlation_matrix(panel, PRICES, config.alpha)
        return_corr = correlation_matrix(panel, RETURNS, config.alpha)
    decompositions = signs = ()
    if DECOMPOSITION_SECTION in sections:
        results = decompose(panel, model=config.model, aggregator=config.aggregator).results
        decompositions = tuple(zip(panel.currencies, results))
        signs = classify_month_signs({code: result.indices for code, result in decompositions}, config.quorum)
    return PanelAnalysis(
        group=panel.group,
        span=(panel.start, panel.end),
        currencies=panel.currencies,
        sections=sections,
        alpha=config.alpha,
        model=config.model,
        aggregator=config.aggregator,
        summaries=summaries,
        price_correlation=price_corr,
        return_correlation=return_corr,
        decompositions=decompositions,
        signs=signs,
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


def markdown_returns_section(summaries: Sequence[MonthlyReturnSummary], alpha: float) -> str:
    codes = [s.currency for s in summaries]
    lines = ["## Average monthly returns (%)", ""]
    lines.append("| Month | " + " | ".join(codes) + " |")
    lines.append("|" + " --- |" * (len(codes) + 1))
    for month in range(1, 13):
        cells = [_fmt_pct(s.per_month[month - 1].mean, s.per_month[month - 1].significant) for s in summaries]
        lines.append(f"| {month} | " + " | ".join(cells) + " |")
    cells = [_fmt_pct(s.overall.mean, s.overall.significant) for s in summaries]
    lines.append("| Average | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(f"\\* mean differs from zero at the {100 * (1 - alpha):g}% level (two-sided one-sample t-test)")
    return "\n".join(lines)


def _markdown_matrix(matrix: CorrelationMatrix, title: str) -> str:
    labels = matrix.labels
    lines = [f"### {title} (n = {matrix.n})", ""]
    lines.append("| | " + " | ".join(labels) + " |")
    lines.append("|" + " --- |" * (len(labels) + 1))
    for row_label, values, stars in zip(labels, matrix.values.tolist(), matrix.significant.tolist()):
        cells = [f"{value:.2f}" + ("*" if star else "") for value, star in zip(values, stars)]
        lines.append(f"| {row_label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


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
    decompositions, signs = analysis.decompositions, analysis.signs
    codes = [code for code, _ in decompositions]
    lines = [f"## Seasonal decomposition ({analysis.model}, {analysis.aggregator} aggregation)", ""]
    lines.append("| Month | " + " | ".join(codes) + " | Sign |")
    lines.append("|" + " --- |" * (len(codes) + 2))
    for month in range(1, 13):
        cells = [f"{result.indices.values[month - 1]:.4f}" for _, result in decompositions]
        lines.append(f"| {month} | " + " | ".join(cells) + f" | {signs[month - 1]} |")
    rows = [
        ("MAPE", lambda r: _fmt_metric(r.accuracy.mape)),
        ("MAD", lambda r: _fmt_metric(r.accuracy.mad)),
        ("MSD", lambda r: _fmt_metric(r.accuracy.msd)),
        ("Constant", lambda r: _fmt_metric(r.trend.intercept)),
        ("Slope", lambda r: _fmt_metric(r.trend.slope)),
    ]
    for name, fmt in rows:
        cells = [fmt(result) for _, result in decompositions]
        lines.append(f"| {name} | " + " | ".join(cells) + " | |")
    return "\n".join(lines)


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
    if analysis.summaries:
        lines += [markdown_returns_section(analysis.summaries, analysis.alpha), ""]
    if analysis.price_correlation is not None:
        lines += [markdown_correlation_section(analysis.price_correlation, analysis.return_correlation), ""]
    if analysis.decompositions:
        lines += [markdown_decomposition_section(analysis), ""]
    return "\n".join(lines)


# -------------------------------------------------------------------- JSON

def _nan_safe(value: float) -> float | None:
    return None if math.isnan(value) else value


def summary_payload(summary: MonthlyReturnSummary) -> dict:
    def record(month, rec):
        return {
            "month": month,
            "mean": rec.mean,
            "n": rec.n,
            "t_stat": rec.t_stat,
            "p_value": rec.p_value,
            "significant": rec.significant,
        }

    return {
        "per_month": [record(m, rec) for m, rec in enumerate(summary.per_month, start=1)],
        "overall": record(None, summary.overall),
    }


def matrix_payload(matrix: CorrelationMatrix) -> dict:
    return {
        "basis": matrix.basis,
        "labels": list(matrix.labels),
        "n": matrix.n,
        "values": matrix.values,
        "p_values": matrix.p_values,
        "significant": matrix.significant,
    }


def decomposition_payload(result: DecompositionResult) -> dict:
    return {
        "model": result.model,
        "indices": list(result.indices.values),
        "deviation_percent": list(seasonal_deviation_percent(result.indices)),
        "constant": result.trend.intercept,
        "slope": result.trend.slope,
        "mape": _nan_safe(result.accuracy.mape),
        "mad": _nan_safe(result.accuracy.mad),
        "msd": _nan_safe(result.accuracy.msd),
    }


def analysis_payload(analysis: PanelAnalysis) -> dict:
    """The JSON document of an analysis, with each correlation matrix's cells as k x k arrays."""
    sections = analysis.sections
    several = len(sections) > 1
    payload: dict = {"group": analysis.group}
    if several:
        start, end = analysis.span
        payload["span"] = {"start": str(start), "end": str(end)}
    if RETURNS_SECTION in sections or CORRELATIONS_SECTION in sections:
        payload["alpha"] = analysis.alpha
    if DECOMPOSITION_SECTION in sections:
        payload["model"] = analysis.model
        if several:
            payload["period"] = 12
        payload["aggregator"] = analysis.aggregator
    if RETURNS_SECTION in sections:
        payload["returns"] = {s.currency: summary_payload(s) for s in analysis.summaries}
    if CORRELATIONS_SECTION in sections:
        payload["correlations"] = {
            PRICES: matrix_payload(analysis.price_correlation) if analysis.price_correlation else None,
            RETURNS: matrix_payload(analysis.return_correlation) if analysis.return_correlation else None,
        }
    if DECOMPOSITION_SECTION in sections:
        payload["decomposition"] = {code: decomposition_payload(result) for code, result in analysis.decompositions}
        payload["signs"] = list(analysis.signs)
    return payload


def render_json(analysis: PanelAnalysis) -> str:
    """JSON of the sections the analysis holds; several sections also carry the span and period.

    The text is that of `json.dumps(analysis_payload(analysis), indent=2)`, arrays as lists, plus a newline.
    """
    return _JsonWriter().dumps(analysis_payload(analysis)) + "\n"


class _JsonWriter:
    """`json.dumps(payload, indent=2)`, byte for byte, with numpy arrays written as their `.tolist()`.

    Dict keys must be strings. The structure is walked in Python, but a dict
    or list that holds no dict, list or array goes to the C encoder in one
    call, with the item separator of its depth. A 2-D array is written
    straight from its cells, and each distinct bit pattern in it is
    formatted once.
    """

    def __init__(self) -> None:
        self.encoders: dict = {}
        self.chunks: list[str] = []

    def encode(self, value, separator: str) -> str:
        """The C encoder's text for value with the given item separator."""
        encoder = self.encoders.get(separator)
        if encoder is None:
            encoder = self.encoders[separator] = json.encoder.c_make_encoder(
                None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None, ": ", separator,
                False, False, True,
            )
        return "".join(encoder(value, 0))

    def dumps(self, value) -> str:
        self.chunks = []
        self.write(value, 0)
        return "".join(self.chunks)

    def write(self, value, level: int) -> None:
        outer = "\n" + "  " * level
        inner = outer + "  "
        if isinstance(value, np.ndarray):
            if value.ndim == 2 and value.size and value.dtype.kind in "biuf":
                self.chunks.append(self.matrix(value, inner))
                return
            value = value.tolist()
        if not isinstance(value, (dict, list, tuple)) or not value:
            self.chunks.append(self.encode(value, ", "))
            return
        is_dict = isinstance(value, dict)
        items = value.values() if is_dict else value
        if not any(isinstance(item, (dict, list, tuple, np.ndarray)) for item in items):
            text = self.encode(value, "," + inner)
            self.chunks += [text[0], inner, text[1:-1], outer, text[-1]]
            return
        self.chunks.append("{" if is_dict else "[")
        for position, item in enumerate(value.items() if is_dict else value):
            self.chunks.append("," + inner if position else inner)
            if is_dict:
                key, item = item
                self.chunks += [json.encoder.encode_basestring_ascii(key), ": "]
            self.write(item, level + 1)
        self.chunks += [outer, "}" if is_dict else "]"]

    def matrix(self, array: np.ndarray, inner: str) -> str:
        """The text of a non-empty 2-D array whose rows' items sit on lines indented like `inner`."""
        distinct, cells = np.unique(array.view(f"u{array.itemsize}").ravel(), return_inverse=True)
        texts = np.array(self.encode(distinct.view(array.dtype).tolist(), "\n")[1:-1].split("\n"), dtype=object)
        cell_separator = "," + inner + "  "
        rows = ["[" + inner + "  " + cell_separator.join(row) + inner + "]"
                for row in texts[cells.reshape(array.shape)].tolist()]
        return "[" + inner + ("," + inner).join(rows) + inner[:-2] + "]"


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
    name = f"{group}_seasonal_deviation.csv"
    if Path(name).name != name:
        raise DataError(f"group {group!r} cannot name a chart file: it must be a single file-name component")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["month," + ",".join(results)]
    deviations = zip(*(seasonal_deviation_percent(result.indices) for result in results.values()))
    for month, row in enumerate(deviations, start=1):
        lines.append(f"{month}," + ",".join(f"{value:.4f}" for value in row))
    path = directory / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
