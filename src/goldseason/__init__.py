"""Calendar-month anomaly detection for monthly price series.

The package ingests monthly price panels from CSV, derives arithmetic
returns, tests per-calendar-month mean returns for significance, builds
price and return correlation matrices, and runs classical seasonal
decomposition (centered moving average, normalized seasonal indices, OLS
trend, MAPE/MAD/MSD) in additive or multiplicative form. A CLI
(``goldseason``) renders the results as markdown or JSON tables and emits
chart data for seasonal deviations.
"""

from .decompose import (
    ADDITIVE,
    MEAN,
    MEDIAN,
    MULTIPLICATIVE,
    AccuracyMetrics,
    DecompositionResult,
    PanelDecomposition,
    SeasonalIndices,
    TrendLine,
    accuracy_metrics,
    centered_ma,
    decompose,
    fit_trend,
    seasonal_deviation_percent,
    seasonal_indices,
)
from .errors import DataError, GoldseasonError, NumericError
from .report import (
    ReportConfig,
    analyze_panel,
    classify_month_signs,
    emit_chart_data,
    render_report,
)
from .series import (
    MonthStamp,
    PriceSeries,
    ReturnSeries,
    SeriesPanel,
    align_panel,
    cumulative_growth,
    parse_panel_csv,
    render_panel_csv,
    slice_span,
    to_returns,
)
from .stats import (
    CorrelationMatrix,
    CorrelationTest,
    MeanReturnStat,
    MonthlyReturnSummary,
    TTestResult,
    correlation_matrix,
    correlation_significance,
    monthly_mean_returns,
    one_sample_ttest,
    pearson,
)

__version__ = "0.1.0"

__all__ = [
    "ADDITIVE",
    "MEAN",
    "MEDIAN",
    "MULTIPLICATIVE",
    "AccuracyMetrics",
    "CorrelationMatrix",
    "CorrelationTest",
    "DataError",
    "DecompositionResult",
    "GeneratorSpec",
    "GoldseasonError",
    "MeanReturnStat",
    "MonthStamp",
    "MonthlyReturnSummary",
    "NumericError",
    "PanelDecomposition",
    "PriceSeries",
    "ReportConfig",
    "ReturnSeries",
    "SeasonalIndices",
    "SeriesPanel",
    "TTestResult",
    "TrendLine",
    "accuracy_metrics",
    "align_panel",
    "analyze_panel",
    "centered_ma",
    "classify_month_signs",
    "correlation_matrix",
    "correlation_significance",
    "cumulative_growth",
    "decompose",
    "emit_chart_data",
    "fit_trend",
    "generate_series",
    "monthly_mean_returns",
    "one_sample_ttest",
    "parse_panel_csv",
    "pearson",
    "render_panel_csv",
    "render_report",
    "seasonal_deviation_percent",
    "seasonal_indices",
    "slice_span",
    "to_returns",
]


def __getattr__(name: str):
    """`GeneratorSpec` and `generate_series` of `goldseason.synth`, which is loaded on first use, not for a report."""
    if name in ("GeneratorSpec", "generate_series"):
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
