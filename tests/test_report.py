import json
import re
from pathlib import Path

import numpy as np
import pytest

from goldseason import (
    ADDITIVE,
    MULTIPLICATIVE,
    DataError,
    GeneratorSpec,
    MonthStamp,
    PriceSeries,
    ReportConfig,
    SeasonalIndices,
    SeriesPanel,
    analyze_panel,
    classify_month_signs,
    decompose,
    emit_chart_data,
    generate_series,
    render_report,
)
from goldseason.report import render_markdown

from reference_tables import CONSUMER_INDICES, CONSUMER_SIGNS, MAJOR_INDICES, MAJOR_SIGNS

DATA_DIR = Path(__file__).parent / "data"


def two_currency_panel() -> SeriesPanel:
    a = generate_series(GeneratorSpec(
        model=MULTIPLICATIVE, intercept=220.0, slope=1.8,
        indices=tuple(1 + 0.03 * np.sin(2 * np.pi * np.arange(12) / 12)),
        noise_sd=0.04, length=180, seed=101, start=MonthStamp(1998, 1), currency="AAA"))
    b = generate_series(GeneratorSpec(
        model=MULTIPLICATIVE, intercept=150.0, slope=2.4,
        indices=tuple(1 + 0.02 * np.cos(2 * np.pi * np.arange(12) / 12)),
        noise_sd=0.05, length=180, seed=202, start=MonthStamp(1998, 1), currency="BBB"))
    return SeriesPanel.from_series("twosynth", (a, b))


def table_indices(table) -> dict[str, SeasonalIndices]:
    return {code: SeasonalIndices.from_values(MULTIPLICATIVE, vals) for code, vals in table.items()}


class TestClassifyMonthSigns:
    def test_all_neutral(self):
        flat = {c: SeasonalIndices(MULTIPLICATIVE, (1.0,) * 12) for c in ("AAA", "BBB")}
        assert classify_month_signs(flat) == ("0",) * 12

    def test_major_currency_table_reproduced_exactly(self):
        signs = classify_month_signs(table_indices(MAJOR_INDICES), quorum=6)
        assert signs == MAJOR_SIGNS

    def test_consumer_currency_table_known_deviations(self):
        signs = classify_month_signs(table_indices(CONSUMER_INDICES), quorum=5)
        mismatches = [m for m in range(12) if signs[m] != CONSUMER_SIGNS[m]]
        assert mismatches == [3, 5]  # months 4 and 6

    def test_quorum_thresholds(self):
        up = SeasonalIndices.from_values(MULTIPLICATIVE, (1.1,) + (1.0,) * 11)
        down = SeasonalIndices.from_values(MULTIPLICATIVE, (0.9,) + (1.0,) * 11)
        both_up = {"AAA": up, "BBB": up}
        split = {"AAA": up, "BBB": down}
        assert classify_month_signs(both_up, quorum=2)[0] == "+"
        assert classify_month_signs(split, quorum=2)[0] == "0"
        assert classify_month_signs(split, quorum=1)[0] == "+"  # first side to reach quorum

    def test_default_quorum_is_unanimity(self):
        up = SeasonalIndices.from_values(MULTIPLICATIVE, (1.1,) + (1.0,) * 11)
        flat = SeasonalIndices(MULTIPLICATIVE, (1.0,) * 12)
        assert classify_month_signs({"AAA": up, "BBB": flat})[0] == "0"

    def test_rescaling_deviations_preserves_signs(self):
        indices = table_indices(MAJOR_INDICES)
        scaled = {
            code: SeasonalIndices(MULTIPLICATIVE, tuple(1.0 + 0.25 * (v - 1.0) for v in idx.values))
            for code, idx in indices.items()
        }
        assert classify_month_signs(scaled, quorum=6) == classify_month_signs(indices, quorum=6)

    def test_mixed_models_rejected(self):
        mixed = {
            "AAA": SeasonalIndices(MULTIPLICATIVE, (1.0,) * 12),
            "BBB": SeasonalIndices(ADDITIVE, (0.0,) * 12),
        }
        with pytest.raises(DataError, match="mixed"):
            classify_month_signs(mixed)

    def test_quorum_bounds(self):
        flat = {"AAA": SeasonalIndices(MULTIPLICATIVE, (1.0,) * 12)}
        with pytest.raises(DataError, match="quorum"):
            classify_month_signs(flat, quorum=2)
        with pytest.raises(DataError, match="quorum"):
            classify_month_signs(flat, quorum=0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            classify_month_signs({})


class TestReportConfig:
    def test_alpha_bounds(self):
        with pytest.raises(DataError, match="alpha"):
            ReportConfig(alpha=0.0)
        with pytest.raises(DataError, match="alpha"):
            ReportConfig(alpha=1.0)

    def test_format_validated(self):
        with pytest.raises(DataError, match="format"):
            ReportConfig(fmt="yaml")


class TestRenderReport:
    def test_markdown_matches_golden_file(self):
        doc = render_report(two_currency_panel(), ReportConfig())
        assert doc == (DATA_DIR / "golden_report.md").read_text(encoding="utf-8")

    def test_output_is_deterministic(self):
        config = ReportConfig()
        assert render_report(two_currency_panel(), config) == render_report(two_currency_panel(), config)

    def test_json_structure(self):
        doc = render_report(two_currency_panel(), ReportConfig(fmt="json"))
        payload = json.loads(doc)
        assert set(payload) >= {"returns", "correlations", "decomposition", "signs"}
        assert set(payload["returns"]) == {"AAA", "BBB"}
        assert payload["correlations"]["prices"]["labels"] == ["AAA", "BBB"]
        assert len(payload["signs"]) == 12
        assert len(payload["decomposition"]["AAA"]["indices"]) == 12
        assert all(len(rec["per_month"]) == 12 for rec in payload["returns"].values())

    def test_markdown_writes_an_undefined_metric_as_n_a(self):
        # a price near zero makes one currency's percentage errors overflow, so its MAPE is NaN
        a = generate_series(GeneratorSpec(MULTIPLICATIVE, 100.0, 0.5, (1.0,) * 12, 0.05, 36, 1, MonthStamp(2000, 1),
                                          "AAA"))
        b = a.prices().copy()
        b[5] = 5e-324
        panel = SeriesPanel.from_series("g", (a, PriceSeries("BBB", MonthStamp(2000, 1), b)))
        analysis = analyze_panel(panel, ReportConfig(), ("decomposition",))
        mape = analysis.decomposition.accuracy[0]
        assert np.isnan(mape[1])
        lines = render_markdown(analysis).splitlines()
        assert lines[2:4] == ["| Month | AAA | BBB | Sign |", "| --- | --- | --- | --- |"]
        assert [line for line in lines if line.startswith("| MAPE ")] == [f"| MAPE | {mape[0]:.6g} | n/a | |"]

    def test_markdown_stars_match_p_values(self):
        panel = two_currency_panel()
        config = ReportConfig()
        analysis = analyze_panel(panel, config)
        doc = render_report(panel, config)
        lines = [ln for ln in doc.splitlines() if re.match(r"\| \d+ \|", ln)]
        returns_lines = lines[:12]
        for month, line in enumerate(returns_lines, start=1):
            cells = [c.strip() for c in line.split("|")[2:-1]]
            for summary, cell in zip(analysis.summaries, cells):
                rec = summary.per_month[month - 1]
                assert cell.endswith("*") == rec.significant
                assert cell.rstrip("*") == f"{rec.mean * 100:.2f}%"


class TestEmitChartData:
    def test_major_usd_column_contains_known_july_deviation(self, tmp_path):
        results = {
            code: decompose(generate_series(GeneratorSpec(
                model=MULTIPLICATIVE, intercept=200.0, slope=0.0,
                indices=vals, length=48, currency=code)))
            for code, vals in list(MAJOR_INDICES.items())[:1]
        }
        path = emit_chart_data("majors", results, tmp_path)
        rows = path.read_text().splitlines()
        assert rows[0] == "month,USD"
        july = float(rows[7].split(",")[1])
        assert july == pytest.approx(-2.19, abs=0.005)

    def test_neutral_indices_give_zero_file(self, tmp_path):
        series = generate_series(GeneratorSpec(
            model=MULTIPLICATIVE, intercept=100.0, slope=0.0,
            indices=(1.0,) * 12, length=48, currency="AAA"))
        path = emit_chart_data("flat", {"AAA": decompose(series)}, tmp_path)
        rows = path.read_text().splitlines()
        assert len(rows) == 13
        assert all(row.split(",")[1] == "0.0000" for row in rows[1:])

    def test_columns_in_panel_order_and_mean_zero(self, tmp_path):
        panel = two_currency_panel()
        results = {s.currency: decompose(s) for s in panel.series}
        path = emit_chart_data(panel.group, results, tmp_path)
        rows = [r.split(",") for r in path.read_text().splitlines()]
        assert rows[0] == ["month", "AAA", "BBB"]
        assert [r[0] for r in rows[1:]] == [str(m) for m in range(1, 13)]
        for col in (1, 2):
            mean = sum(float(r[col]) for r in rows[1:]) / 12
            assert abs(mean) < 1e-3  # 4-decimal rounding noise only

    def test_directory_created(self, tmp_path):
        series = generate_series(GeneratorSpec(
            model=MULTIPLICATIVE, intercept=100.0, slope=0.0,
            indices=(1.0,) * 12, length=48, currency="AAA"))
        target = tmp_path / "nested" / "charts"
        path = emit_chart_data("g", {"AAA": decompose(series)}, target)
        assert path.parent == target
        assert path.exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            emit_chart_data("g", {}, tmp_path)


class TestAnalyzePanel:
    def test_single_currency_panel_omits_correlations(self):
        series = generate_series(GeneratorSpec(
            model=MULTIPLICATIVE, intercept=150.0, slope=1.0,
            indices=(1.0,) * 12, noise_sd=0.03, length=60, currency="AAA"))
        analysis = analyze_panel(SeriesPanel.from_series("solo", (series,)), ReportConfig())
        assert analysis.price_correlation is None
        assert analysis.return_correlation is None
        doc = render_report(SeriesPanel.from_series("solo", (series,)), ReportConfig())
        assert "Correlation" not in doc

    def test_every_array_is_read_only(self):
        analysis = analyze_panel(two_currency_panel(), ReportConfig())
        summaries = analysis.summaries
        monthly, decomposition = analysis.monthly, analysis.decomposition
        for array in (monthly.means, monthly.counts, monthly.t_stats, monthly.p_values, decomposition.indices,
                      decomposition.trend, decomposition.accuracy, decomposition.data, decomposition.fitted,
                      decomposition.irregular):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            monthly.means[0, 0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            decomposition.indices[0, 0] = 99.0
        assert analysis.summaries == summaries

    @pytest.mark.parametrize("sections", [(), ("returns", "charts")])
    def test_sections_must_be_a_known_nonempty_subset(self, sections):
        with pytest.raises(DataError, match="sections must be a non-empty subset"):
            analyze_panel(two_currency_panel(), ReportConfig(), sections)

    def test_signs_respect_quorum_config(self):
        panel = two_currency_panel()
        strict = analyze_panel(panel, ReportConfig(quorum=2))
        loose = analyze_panel(panel, ReportConfig(quorum=1))
        plus_strict = strict.signs.count("+") + strict.signs.count("-")
        plus_loose = loose.signs.count("+") + loose.signs.count("-")
        assert plus_loose >= plus_strict
