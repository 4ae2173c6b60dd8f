"""Independent oracles for the program's report output.

Every expected number is recomputed from the panel's prices with numpy and
scipy, never with the program under test:

* per-calendar-month and overall t and p from ``scipy.stats.ttest_1samp``;
* correlations from ``numpy.corrcoef``, their p from the Student-t
  survival function;
* seasonal indices, trend and MAPE/MAD/MSD from the short decomposition
  below (centred 2x12 moving average, per-month median of ratios,
  normalised to mean 1, OLS trend on t = 1..N).

Each ``check_*`` function returns a list of problems; an empty list means
the output was accepted. The report settings are the CLI defaults:
alpha 0.05, multiplicative model, period 12, median aggregation, and
unanimity for the consensus sign.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special, stats

from panels import Panel

ALPHA = 0.05
PERIOD = 12
REL = 1e-9  # relative tolerance for full-precision JSON values
ABS = 1e-12  # absolute floor, for values that sit near zero
P_ABS = 1e-300  # p-values are checked relatively down to the edge of the normal doubles
X_ULPS = 16  # rounding errors allowed in x = df / (df + t^2) when checking p-values


@dataclass(frozen=True)
class Expected:
    """Oracle values for one report over rows lo..hi-1 of a panel."""

    codes: tuple[str, ...]
    start: str
    end: str
    n: int
    mean: np.ndarray  # (13, k): rows 0..11 are calendar months, row 12 is overall
    count: np.ndarray  # (13,)
    t: np.ndarray  # (13, k)
    p: np.ndarray  # (13, k)
    p_slack: np.ndarray  # (13, k): extra p-value tolerance, see p_slack()
    corr: dict  # basis -> (r, p, n, p_slack)
    indices: np.ndarray  # (12, k)
    constant: np.ndarray
    slope: np.ndarray
    mape: np.ndarray
    mad: np.ndarray
    msd: np.ndarray
    signs: tuple[str, ...]


def p_slack(t: np.ndarray, df) -> np.ndarray:
    """How far p = I_x(df/2, 1/2) moves when x = df / (df + t^2) is off by X_ULPS rounding errors.

    The program computes two-sided p-values with this formula. Near t = 0, x
    is close to 1 and p is ill-conditioned in x: an error of a few ulps in x
    moves p by up to about 1e-7, although t itself is exact to 1e-15.
    The check allows that much on top of its relative tolerance.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.nan_to_num(df / (df + np.asarray(t, dtype=float) ** 2))
    lower = np.clip(x - X_ULPS * np.finfo(float).eps, 0.0, 1.0)
    return np.abs(special.betainc(df / 2.0, 0.5, x) - special.betainc(df / 2.0, 0.5, lower))


def _correlation(data: np.ndarray):
    n = data.shape[0]
    r = np.corrcoef(data, rowvar=False)
    df = n - 2
    off = ~np.eye(r.shape[0], dtype=bool)
    t = r[off] * np.sqrt(df / (1.0 - r[off] ** 2))
    p = np.zeros_like(r)
    p[off] = 2.0 * stats.t.sf(np.abs(t), df)
    slack = np.zeros_like(r)
    slack[off] = p_slack(t, df)
    return r, p, n, slack


def _decompose(x: np.ndarray, months: np.ndarray):
    """Classical multiplicative decomposition of every column of x at once."""
    n = x.shape[0]
    half = PERIOD // 2
    weights = np.r_[0.5, np.ones(PERIOD - 1), 0.5] / PERIOD
    ma = sliding_window_view(x, PERIOD + 1, axis=0) @ weights
    ratios = x[half:n - half] / ma
    inner = months[half:n - half]
    agg = np.array([np.median(ratios[inner == m], axis=0) for m in range(1, PERIOD + 1)])
    indices = agg / agg.mean(axis=0)
    per_point = indices[months - 1]
    y = x / per_point
    t = np.arange(1, n + 1, dtype=float)
    t_dev = t - t.mean()
    slope = (t_dev @ (y - y.mean(axis=0))) / (t_dev @ t_dev)
    constant = y.mean(axis=0) - slope * t.mean()
    fitted = (constant + slope * t[:, None]) * per_point
    err = x - fitted
    mape = 100.0 * np.mean(np.abs(err) / np.abs(x), axis=0)
    return indices, constant, slope, mape, np.mean(np.abs(err), axis=0), np.mean(err * err, axis=0)


def expected(panel: Panel, lo: int = 0, hi: int | None = None) -> Expected:
    """Oracle values for a report on rows lo..hi-1 (the whole panel by default)."""
    hi = panel.prices.shape[0] if hi is None else hi
    x = panel.prices[lo:hi]
    months = panel.months()[lo:hi]
    rets = x[1:] / x[:-1] - 1.0
    ret_months = months[1:]
    k = x.shape[1]

    mean = np.empty((13, k))
    t = np.empty((13, k))
    p = np.empty((13, k))
    count = np.empty(13, dtype=int)
    for row in range(13):
        sample = rets if row == 12 else rets[ret_months == row + 1]
        res = stats.ttest_1samp(sample, 0.0, axis=0)
        mean[row], t[row], p[row], count[row] = sample.mean(axis=0), res.statistic, res.pvalue, sample.shape[0]

    indices, constant, slope, mape, mad, msd = _decompose(x, months)
    signs = tuple(
        "+" if (row > 1.0).all() else "-" if (row < 1.0).all() else "0" for row in indices
    )
    return Expected(
        codes=panel.codes,
        start=panel.stamp(lo),
        end=panel.stamp(hi - 1),
        n=x.shape[0],
        mean=mean,
        count=count,
        t=t,
        p=p,
        p_slack=p_slack(t, (count - 1)[:, None]),
        corr={"prices": _correlation(x), "returns": _correlation(rets)},
        indices=indices,
        constant=constant,
        slope=slope,
        mape=mape,
        mad=mad,
        msd=msd,
        signs=signs,
    )


class _Problems(list):
    def close(self, what: str, got, want, rel: float = REL, abs_: float = ABS) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape}, expected {want.shape}")
            return
        bad = ~(np.abs(got - want) <= rel * np.abs(want) + abs_)
        if bad.any():
            i = tuple(int(v) for v in np.argwhere(bad)[0])
            self.append(f"{what}{list(i)}: got {got[i]!r}, expected {want[i]!r} ({int(bad.sum())} cells off)")

    def same(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {got!r}, expected {want!r}")

    def flags(self, what: str, got, p) -> None:
        """Significance flags must be p < alpha, except where p is within tolerance of alpha."""
        got = np.asarray(got, dtype=bool)
        p = np.asarray(p, dtype=float)
        bad = (got != (p < ALPHA)) & ~(np.abs(p - ALPHA) <= REL * ALPHA)
        if got.shape != p.shape or bad.any():
            self.append(f"{what}: significance flags disagree with p < {ALPHA}")


def check_json(text: bytes | str, exp: Expected) -> list[str]:
    """Check a ``report --format json`` document against the oracle values."""
    out = _Problems()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    codes = list(exp.codes)
    out.same("header", [doc.get(key) for key in ("group", "alpha", "model", "period", "aggregator")],
             ["panel", ALPHA, "multiplicative", PERIOD, "median"])
    out.same("span", doc.get("span"), {"start": exp.start, "end": exp.end})
    try:
        returns = doc["returns"]
        out.same("returns currencies", list(returns), codes)
        records = [[*returns[c]["per_month"], returns[c]["overall"]] for c in codes]
        out.same("returns months", [rec["month"] for rec in records[0]], [*range(1, 13), None])
        for key, want, abs_ in (("mean", exp.mean, ABS), ("t_stat", exp.t, ABS),
                                ("p_value", exp.p, P_ABS + exp.p_slack)):
            out.close(f"returns.{key}", [[rec[key] for rec in col] for col in records], want.T, abs_=np.transpose(abs_))
        out.same("returns.n", [[rec["n"] for rec in col] for col in records], [list(exp.count)] * len(codes))
        out.flags("returns.significant", [[rec["significant"] for rec in col] for col in records], exp.p.T)

        for basis, (r, p, n, slack) in exp.corr.items():
            m = doc["correlations"][basis]
            out.same(f"{basis}.header", (m["basis"], m["labels"], m["n"]), (basis, codes, n))
            out.close(f"{basis}.r", m["values"], r)
            out.close(f"{basis}.p", m["p_values"], p, abs_=P_ABS + slack)
            out.flags(f"{basis}.significant", m["significant"], p)

        dec = doc["decomposition"]
        out.same("decomposition currencies", list(dec), codes)
        out.same("decomposition models", {dec[c]["model"] for c in codes}, {"multiplicative"})
        out.close("indices", [dec[c]["indices"] for c in codes], exp.indices.T)
        out.close("deviation_percent", [dec[c]["deviation_percent"] for c in codes], (exp.indices.T - 1.0) * 100.0,
                  abs_=1e-9)
        for key, want in (("constant", exp.constant), ("slope", exp.slope), ("mape", exp.mape),
                          ("mad", exp.mad), ("msd", exp.msd)):
            out.close(key, [dec[c][key] for c in codes], want)
        out.same("signs", tuple(doc["signs"]), exp.signs)
    except (KeyError, TypeError, IndexError) as exc:
        out.append(f"report JSON lacks an expected field: {exc!r}")
    return out


def _table(lines: list[str], heading: str) -> list[list[str]]:
    """Cells of the markdown table that follows a heading line, header row first."""
    i = lines.index(heading) + 2
    rows = []
    while i < len(lines) and lines[i].startswith("|"):
        if not lines[i].startswith("| ---") and not lines[i].startswith("|---"):
            rows.append([cell.strip() for cell in lines[i].strip("|").split("|")])
        i += 1
    return rows


def _starred(cells: list[str], suffix: str = ""):
    stars = [c.endswith("*") for c in cells]
    values = [float(c.rstrip("*").removesuffix(suffix)) for c in cells]
    return values, stars


def check_markdown(text: bytes | str, exp: Expected) -> list[str]:
    """Check a ``report --format md`` document: each rounded cell against the oracle."""
    out = _Problems()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    codes = list(exp.codes)
    k = len(codes)
    try:
        out.same("title", lines[:3], ["# Seasonal analysis: panel", "",
                                      f"Span {exp.start}..{exp.end}, {k} currencies, alpha {ALPHA:g}."])
        rows = _table(lines, "## Average monthly returns (%)")
        out.same("returns header", rows[0], ["Month", *codes])
        out.same("returns rows", [r[0] for r in rows[1:]], [*map(str, range(1, 13)), "Average"])
        values, stars = zip(*(_starred(r[1:], "%") for r in rows[1:]))
        out.close("returns %", values, exp.mean * 100.0, rel=0.0, abs_=0.005 + 1e-9)
        out.flags("returns stars", stars, exp.p)

        for basis, title in (("prices", "Prices"), ("returns", "Returns")):
            r, p, n, _ = exp.corr[basis]
            rows = _table(lines, f"### {title} (n = {n})")
            out.same(f"{basis} header", rows[0], ["", *codes])
            values, stars = zip(*(_starred(row[1:]) for row in rows[1:]))
            out.close(f"{basis} r", values, r, rel=0.0, abs_=0.005 + 1e-9)
            out.flags(f"{basis} stars", stars, p)

        rows = _table(lines, "## Seasonal decomposition (multiplicative, median aggregation)")
        out.same("decomposition header", rows[0], ["Month", *codes, "Sign"])
        monthly, metrics = rows[1:13], rows[13:]
        out.close("indices", [[float(c) for c in r[1:-1]] for r in monthly], exp.indices, rel=0.0,
                  abs_=0.00005 + 1e-9)
        out.same("signs", tuple(r[-1] for r in monthly), exp.signs)
        out.same("metric rows", [r[0] for r in metrics], ["MAPE", "MAD", "MSD", "Constant", "Slope"])
        wants = (exp.mape, exp.mad, exp.msd, exp.constant, exp.slope)
        out.close("metrics", [[float(c) for c in r[1:-1]] for r in metrics], np.array(wants), rel=5e-6, abs_=0.0)
    except (ValueError, IndexError) as exc:
        out.append(f"markdown report does not have the expected layout: {exc!r}")
    return out


def check_charts(text: bytes | str, exp: Expected) -> list[str]:
    """Check a seasonal-deviation chart CSV (4 decimals) against the oracle indices."""
    out = _Problems()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    try:
        out.same("chart header", rows[0], ["month", *exp.codes])
        out.same("chart months", [r[0] for r in rows[1:]], [str(m) for m in range(1, 13)])
        out.close("chart deviations", [[float(c) for c in r[1:]] for r in rows[1:]], (exp.indices - 1.0) * 100.0,
                  rel=0.0, abs_=0.00005 + 1e-9)
    except (ValueError, IndexError) as exc:
        out.append(f"chart CSV does not have the expected layout: {exc!r}")
    return out
