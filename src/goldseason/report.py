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

from .decompose import (
    MEDIAN,
    MULTIPLICATIVE,
    DecompositionResult,
    SeasonalIndices,
    decompose,
    seasonal_deviation_percent,
)
from .errors import DataError
from .series import MonthStamp, SeriesPanel, to_returns
from .stats import (
    PRICES,
    RETURNS,
    CorrelationMatrix,
    MonthlyReturnSummary,
    correlation_matrix,
    monthly_mean_returns,
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

    group: str = "panel"
    model: str = MULTIPLICATIVE
    aggregator: str = MEDIAN
    alpha: float = 0.05
    quorum: int | None = None  # None means unanimity
    fmt: str = FORMAT_MARKDOWN

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.fmt not in (FORMAT_MARKDOWN, FORMAT_JSON):
            raise DataError(f"format must be {FORMAT_MARKDOWN!r} or {FORMAT_JSON!r}, got {self.fmt!r}")
        if self.quorum is not None and self.quorum < 1:
            raise DataError(f"quorum must be at least 1, got {self.quorum}")


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
    periods = {ind.period for ind in items}
    if len(periods) != 1:
        raise DataError(f"mixed index periods: {sorted(periods)}")
    period = items[0].period
    n = len(items)
    if quorum is None:
        quorum = n
    if not 1 <= quorum <= n:
        raise DataError(f"quorum must be in 1..{n}, got {quorum}")
    neutral = 1.0 if items[0].model == MULTIPLICATIVE else 0.0

    labels = []
    for month in range(1, period + 1):
        above = sum(1 for ind in items if ind.for_month(month) > neutral)
        below = sum(1 for ind in items if ind.for_month(month) < neutral)
        if above >= quorum:
            labels.append(SIGN_POSITIVE)
        elif below >= quorum:
            labels.append(SIGN_NEGATIVE)
        else:
            labels.append(SIGN_NEUTRAL)
    return tuple(labels)


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
        summaries = tuple(monthly_mean_returns(to_returns(s), config.alpha) for s in panel.series)
    price_corr = return_corr = None
    if CORRELATIONS_SECTION in sections and (len(panel) >= 2 or len(sections) == 1):
        price_corr = correlation_matrix(panel, PRICES, config.alpha)
        return_corr = correlation_matrix(panel, RETURNS, config.alpha)
    decompositions = signs = ()
    if DECOMPOSITION_SECTION in sections:
        decompositions = tuple(
            (s.currency, decompose(s, model=config.model, aggregator=config.aggregator)) for s in panel.series
        )
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
    return f"{value * 100.0:.2f}%" + ("*" if significant else "")

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
    for i, row_label in enumerate(labels):
        cells = []
        for j in range(len(labels)):
            star = "*" if matrix.significant[i][j] else ""
            cells.append(f"{matrix.values[i][j]:.2f}{star}")
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
    period = decompositions[0][1].indices.period
    lines = [f"## Seasonal decomposition ({analysis.model}, {analysis.aggregator} aggregation)", ""]
    lines.append("| Month | " + " | ".join(codes) + " | Sign |")
    lines.append("|" + " --- |" * (len(codes) + 2))
    for month in range(1, period + 1):
        cells = [f"{result.indices.for_month(month):.4f}" for _, result in decompositions]
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
        "values": [list(row) for row in matrix.values],
        "p_values": [list(row) for row in matrix.p_values],
        "significant": [list(row) for row in matrix.significant],
    }


def decomposition_payload(result: DecompositionResult) -> dict:
    return {
        "model": result.model,
        "indices": list(result.indices.values),
        "deviation_percent": list(seasonal_deviation_percent(result.indices)),
        "constant": result.trend.intercept,
        "slope": result.trend.slope,
        "mape": _nan_safe(result.accuracy.mape),
        "mad": result.accuracy.mad,
        "msd": result.accuracy.msd,
    }


def render_json(analysis: PanelAnalysis) -> str:
    """JSON of the sections the analysis holds; several sections also carry the span and period."""
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
    return json.dumps(payload, indent=2) + "\n"


# -------------------------------------------------------------- chart data

def emit_chart_data(
    group: str,
    results: Mapping[str, DecompositionResult],
    directory: Path | str,
) -> Path:
    """Write one CSV of per-month percent deviations for a currency group.

    Header is ``month,<CODE>,...`` followed by 12 rows with values at 4
    decimal places, one column per currency in mapping order.
    """
    if not results:
        raise DataError("chart data needs at least one decomposition result")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    codes = list(results)
    period = next(iter(results.values())).indices.period
    deviations = {code: seasonal_deviation_percent(results[code].indices) for code in codes}
    lines = ["month," + ",".join(codes)]
    for month in range(1, period + 1):
        row = ",".join(f"{deviations[code][month - 1]:.4f}" for code in codes)
        lines.append(f"{month},{row}")
    path = directory / f"{group}_seasonal_deviation.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
