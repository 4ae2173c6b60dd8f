import json

import pytest

from goldseason import SeriesPanel, parse_panel_csv, render_panel_csv
from goldseason.cli import run_cli

from test_report import DATA_DIR, two_currency_panel


@pytest.fixture
def panel_csv(tmp_path):
    """Two synthetic currencies, 60 months, written via the synth command."""
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(["synth", "--intercept", "200", "--slope", "1.2", "--noise-sd", "0.03",
                    "--length", "60", "--seed", "5", "--currency", "AAA",
                    "--start", "2000-01", "--out", str(a)]) == 0
    assert run_cli(["synth", "--intercept", "150", "--slope", "0.8", "--noise-sd", "0.04",
                    "--length", "60", "--seed", "6", "--currency", "BBB",
                    "--start", "2000-01", "--out", str(b)]) == 0
    rows_a = a.read_text().splitlines()
    rows_b = b.read_text().splitlines()
    merged = ["date,AAA,BBB"]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        merged.append(ra + "," + rb.split(",")[1])
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(merged) + "\n")
    return path


class TestSynth:
    def test_writes_parseable_csv(self, tmp_path):
        out = tmp_path / "syn.csv"
        code = run_cli(["synth", "--intercept", "100", "--length", "30", "--out", str(out)])
        assert code == 0
        panel = parse_panel_csv(out.read_text())
        assert panel.currencies == ("SYN",)
        assert len(panel.series[0]) == 30

    def test_deterministic(self, tmp_path):
        args = ["synth", "--intercept", "100", "--noise-sd", "0.05", "--seed", "7",
                "--length", "48"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run_cli(args + ["--out", str(one)]) == 0
        assert run_cli(args + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_bad_indices_count(self, capsys):
        code = run_cli(["synth", "--intercept", "100", "--indices", "1.0,1.0"])
        assert code == 1
        assert "12" in capsys.readouterr().err

    def test_stdout_when_no_out_flag(self, capsys):
        assert run_cli(["synth", "--intercept", "50", "--length", "24"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("date,SYN")


class TestReport:
    def test_markdown_to_stdout(self, panel_csv, capsys):
        code = run_cli(["report", "--input", str(panel_csv), "--group", "majors",
                        "--model", "multiplicative", "--format", "md"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# Seasonal analysis: majors")
        assert "## Seasonal decomposition" in out

    def test_json_object_shape(self, panel_csv, capsys):
        code = run_cli(["report", "--input", str(panel_csv), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"returns", "correlations", "decomposition", "signs"}

    def test_byte_identical_runs(self, panel_csv, tmp_path):
        one, two = tmp_path / "r1.md", tmp_path / "r2.md"
        args = ["report", "--input", str(panel_csv), "--group", "g"]
        assert run_cli(args + ["--out", str(one)]) == 0
        assert run_cli(args + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_charts_directory(self, panel_csv, tmp_path, capsys):
        charts = tmp_path / "charts"
        code = run_cli(["report", "--input", str(panel_csv), "--group", "duo",
                        "--charts", str(charts), "--out", str(tmp_path / "r.md")])
        assert code == 0
        chart = charts / "duo_seasonal_deviation.csv"
        rows = chart.read_text().splitlines()
        assert rows[0] == "month,AAA,BBB"
        assert len(rows) == 13

    def test_start_end_slicing(self, panel_csv, capsys):
        code = run_cli(["report", "--input", str(panel_csv),
                        "--start", "2001-01", "--end", "2004-12"])
        assert code == 0
        assert "Span 2001-01..2004-12" in capsys.readouterr().out

    def test_bad_start_flag(self, panel_csv, capsys):
        assert run_cli(["report", "--input", str(panel_csv), "--start", "噫"]) == 1
        assert "usage:" in capsys.readouterr().err


class TestSubcommands:
    def test_returns_markdown(self, panel_csv, capsys):
        assert run_cli(["returns", "--input", str(panel_csv)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("## Average monthly returns")

    def test_returns_json(self, panel_csv, capsys):
        assert run_cli(["returns", "--input", str(panel_csv), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["returns"]) == {"AAA", "BBB"}

    def test_correlate(self, panel_csv, capsys):
        assert run_cli(["correlate", "--input", str(panel_csv)]) == 0
        assert "### Prices" in capsys.readouterr().out

    def test_correlate_json(self, panel_csv, capsys):
        assert run_cli(["correlate", "--input", str(panel_csv), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["correlations"]) == {"prices", "returns"}

    def test_decompose(self, panel_csv, capsys):
        assert run_cli(["decompose", "--input", str(panel_csv), "--aggregator", "mean"]) == 0
        out = capsys.readouterr().out
        assert "mean aggregation" in out
        assert "| Constant |" in out

    def test_decompose_json_signs(self, panel_csv, capsys):
        assert run_cli(["decompose", "--input", str(panel_csv), "--format", "json",
                        "--quorum", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["signs"]) == 12

    def test_decompose_non_default_period(self, panel_csv, capsys):
        assert run_cli(["decompose", "--input", str(panel_csv), "--period", "6"]) == 1
        assert "--period" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["returns", "correlate", "decompose", "report"])
    def test_bad_alpha_is_data_error(self, panel_csv, capsys, command):
        assert run_cli([command, "--input", str(panel_csv), "--alpha", "2"]) == 2
        assert "alpha" in capsys.readouterr().err


class TestOneAnalysisPath:
    """Every analysis subcommand prints what the library's report renders."""

    @pytest.fixture
    def golden_csv(self, tmp_path):
        path = tmp_path / "twosynth.csv"
        path.write_text(render_panel_csv(two_currency_panel()))
        return path

    def test_report_matches_golden_file(self, golden_csv, capsys):
        assert run_cli(["report", "--input", str(golden_csv), "--group", "twosynth"]) == 0
        assert capsys.readouterr().out == (DATA_DIR / "golden_report.md").read_text(encoding="utf-8")

    @pytest.mark.parametrize("command, index", [("returns", 1), ("correlate", 2), ("decompose", 3)])
    def test_subcommand_prints_its_report_section(self, golden_csv, capsys, command, index):
        sections = (DATA_DIR / "golden_report.md").read_text(encoding="utf-8").split("\n\n## ")
        assert run_cli([command, "--input", str(golden_csv)]) == 0
        assert capsys.readouterr().out == "## " + sections[index].rstrip("\n") + "\n"

    def test_single_currency_correlate_fails_but_report_omits_it(self, tmp_path, capsys):
        path = tmp_path / "solo.csv"
        path.write_text(render_panel_csv(SeriesPanel("solo", two_currency_panel().series[:1])))
        assert run_cli(["correlate", "--input", str(path)]) == 2
        assert "at least 2 series" in capsys.readouterr().err
        assert run_cli(["report", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "## Correlation" not in out and "## Seasonal decomposition" in out

    def test_correlate_needs_no_full_year(self, tmp_path, capsys):
        rows = [f"2000-{m:02d},{100 + m + m % 3},{50 + 2 * m - m % 2},{80 - m + m % 4}" for m in range(1, 11)]
        path = tmp_path / "short.csv"
        path.write_text("date,AAA,BBB,CCC\n" + "\n".join(rows) + "\n")
        assert run_cli(["correlate", "--input", str(path)]) == 0
        assert "### Returns (n = 9)" in capsys.readouterr().out
        assert run_cli(["report", "--input", str(path)]) == 2


class TestExitCodes:
    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["report", "--input", str(tmp_path / "absent.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "not found" in err

    def test_no_command_is_usage_error(self, capsys):
        assert run_cli([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, panel_csv, capsys):
        assert run_cli(["report", "--input", str(panel_csv), "--bogus"]) == 1

    def test_calendar_gap_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "gap.csv"
        bad.write_text("date,USD\n2000-01,100\n2000-03,110\n")
        code = run_cli(["returns", "--input", str(bad)])
        assert code == 2
        assert "2000-02" in capsys.readouterr().err

    def test_non_positive_price_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "neg.csv"
        bad.write_text("date,USD\n2000-01,100\n2000-02,-4\n")
        assert run_cli(["returns", "--input", str(bad)]) == 2

    def test_constant_series_is_numeric_error(self, tmp_path, capsys):
        rows = ["date,USD"] + [f"2000-{m:02d},100.0" for m in range(1, 13)]
        rows += [f"2001-{m:02d},100.0" for m in range(1, 13)]
        rows += [f"2002-{m:02d},100.0" for m in range(1, 13)]
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(rows) + "\n")
        code = run_cli(["returns", "--input", str(flat)])
        assert code == 3
        assert "constant" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "goldseason" in capsys.readouterr().out
