"""The JSON document of an analysis as a dict tree, the independent oracle for `goldseason.report.render_json`.

`analysis_payload` builds the document from the public records of an
analysis (`summaries`, the correlation matrices, `decompositions`), one
dict per record. `reference_json` renders it with the standard library,
so `render_json` must give exactly `json.dumps(payload, indent=2)` plus a
newline.
"""

import json
import math

import numpy as np

from goldseason.decompose import seasonal_deviation_percent
from goldseason.report import CORRELATIONS_SECTION, DECOMPOSITION_SECTION, RETURNS_SECTION
from goldseason.stats import PRICES, RETURNS


def _nan_safe(value: float) -> float | None:
    return None if math.isnan(value) else value


def summary_payload(summary) -> dict:
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


def matrix_payload(matrix) -> dict:
    return {
        "basis": matrix.basis,
        "labels": list(matrix.labels),
        "n": matrix.n,
        "values": matrix.values,
        "p_values": matrix.p_values,
        "significant": matrix.significant,
    }


def decomposition_payload(result) -> dict:
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


def analysis_payload(analysis) -> dict:
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


def as_lists(value):
    """The payload with every numpy array replaced by its `.tolist()`."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


def reference_json(analysis) -> str:
    """`json.dumps(analysis_payload(analysis), indent=2)` plus a newline."""
    return json.dumps(as_lists(analysis_payload(analysis)), indent=2) + "\n"
