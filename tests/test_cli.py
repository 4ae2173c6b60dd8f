import errno
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import goldseason
from goldseason import (
    AccuracyMetrics,
    DecompositionResult,
    MeanReturnStat,
    MonthStamp,
    MonthlyReturnSummary,
    ReportConfig,
    SeasonalIndices,
    SeriesPanel,
    TrendLine,
    analyze_panel,
    parse_panel_csv,
    render_panel_csv,
)
from goldseason.cli import run_cli
from goldseason.synth import GeneratorSpec, generate_series
from goldseason.report import CORRELATIONS_SECTION, DECOMPOSITION_SECTION, REPORT, RETURNS_SECTION

from conftest import dipping_prices
from reference_payload import reference_json
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

    def test_every_flag_reaches_the_spec(self, capsys):
        indices = tuple(float(i) for i in range(6, -6, -1))
        assert run_cli(["synth", "--model", "additive", "--intercept", "50", "--slope", "0.25",
                        "--indices", ",".join(map(str, indices)), "--noise-sd", "0.5", "--length", "30",
                        "--seed", "9", "--start", "1999-11", "--currency", "XAU"]) == 0
        spec = GeneratorSpec("additive", 50.0, 0.25, indices, 0.5, 30, 9, MonthStamp(1999, 11), "XAU")
        expected = render_panel_csv(SeriesPanel.from_series("synthetic", (generate_series(spec),)))
        assert capsys.readouterr() == (expected, "")

    def test_malformed_start_is_usage_error(self, capsys):
        assert run_cli(["synth", "--intercept", "100", "--start", "1999/11"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "error: --start: invalid month stamp '1999/11'" in err

    def test_bad_indices_count(self, capsys):
        code = run_cli(["synth", "--intercept", "100", "--indices", "1.0,1.0"])
        assert code == 1
        assert "12" in capsys.readouterr().err

    def test_non_numeric_indices_is_usage_error(self, capsys):
        assert run_cli(["synth", "--intercept", "100", "--indices", ",".join(["x"] * 12)]) == 1
        assert "error: --indices: could not convert string to float: 'x'" in capsys.readouterr().err

    def test_out_into_a_missing_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "syn.csv"
        assert run_cli(["synth", "--intercept", "100", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_stdout_when_no_out_flag(self, capsys):
        assert run_cli(["synth", "--intercept", "50", "--length", "24"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("date,SYN")

    @pytest.mark.parametrize("flags, message", [
        (["--intercept", "nan"], "intercept must be finite, got nan"),
        (["--intercept", "inf"], "intercept must be finite, got inf"),
        (["--intercept", "100", "--indices", "nan" + ",1" * 11], "seasonal indices must be finite"),
        (["--intercept", "100", "--noise-sd", "nan"], "noise_sd must be finite, got nan"),
        (["--intercept", "1e308", "--slope", "1e308"], "generated value inf at 2000-01 is not finite"),
    ])
    def test_non_finite_values_are_data_errors(self, capsys, flags, message):
        assert run_cli(["synth", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {message}")

    @pytest.mark.parametrize("flags, message", [
        (["--length", "24", "--start", "9999-01"], "24 months from 9999-01 end at 10000-12"),
        (["--length", "10000000000"], "10000000000 months from 2000-01 end at 833335333-04"),  # nothing allocated
    ])
    def test_series_past_9999_12_is_data_error(self, capsys, flags, message):
        assert run_cli(["synth", "--intercept", "100", *flags]) == 2
        assert capsys.readouterr() == ("", f"data error: {message}, after 9999-12, the last month a stamp can name\n")

    def test_negative_seed_is_data_error(self, capsys):
        argv = ["synth", "--intercept", "100", "--noise-sd", "0.1", "--seed", "-1", "--length", "24"]
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", "data error: seed must be >= 0, got -1\n")

    def test_series_ending_at_9999_12_round_trips(self, capsys):
        assert run_cli(["synth", "--intercept", "100", "--length", "24", "--start", "9998-01"]) == 0
        out = capsys.readouterr().out
        assert render_panel_csv(parse_panel_csv(out, "synthetic")) == out

    def test_indices_near_the_largest_double_normalize_to_flat(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["synth", "--intercept", "100", "--indices", ",".join(["1e308"] * 12)]) == 0
            huge = capsys.readouterr()
            assert run_cli(["synth", "--intercept", "100"]) == 0
        assert huge.err == ""
        assert huge.out == capsys.readouterr().out


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

    def test_json_bytes_equal_the_stdlib_rendering(self, panel_csv, capsys):
        assert run_cli(["report", "--input", str(panel_csv), "--format", "json", "--group", "måned"]) == 0
        panel = parse_panel_csv(panel_csv.read_text(), "måned")
        out = capsys.readouterr().out
        assert '"group": "m\\u00e5ned"' in out
        assert out == reference_json(analyze_panel(panel, ReportConfig(fmt="json")))

    @pytest.mark.parametrize("command, config, sections", [
        ("returns", {}, (RETURNS_SECTION,)),
        ("correlate", {}, (CORRELATIONS_SECTION,)),
        ("decompose", {"model": "additive", "aggregator": "mean"}, (DECOMPOSITION_SECTION,)),
    ])
    def test_section_json_bytes_equal_the_stdlib_rendering(self, panel_csv, capsys, command, config, sections):
        flags = [part for key, value in config.items() for part in (f"--{key}", value)]
        assert run_cli([command, "--input", str(panel_csv), "--format", "json", *flags]) == 0
        analysis = analyze_panel(parse_panel_csv(panel_csv.read_text()), ReportConfig(fmt="json", **config), sections)
        assert capsys.readouterr().out == reference_json(analysis)

    @pytest.mark.parametrize("command, sections", [
        ("report", REPORT),
        ("returns", (RETURNS_SECTION,)),
        ("correlate", (CORRELATIONS_SECTION,)),
        ("decompose", (DECOMPOSITION_SECTION,)),
    ])
    def test_json_on_stdout_and_in_out_file_equals_the_stdlib_rendering(self, panel_csv, tmp_path, capsysbinary,
                                                                         command, sections):
        argv = [command, "--input", str(panel_csv), "--format", "json"]
        expected = reference_json(analyze_panel(parse_panel_csv(panel_csv.read_text()), ReportConfig(), sections))
        assert run_cli(argv) == 0
        assert capsysbinary.readouterr() == (expected.encode(), b"")
        out = tmp_path / "out.json"
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        assert out.read_bytes() == expected.encode()

    def test_one_currency_json_has_null_correlations(self, tmp_path, capsys):
        panel = SeriesPanel.from_series("solo", two_currency_panel().series[:1])
        path = tmp_path / "solo.csv"
        path.write_text(render_panel_csv(panel))
        assert run_cli(["report", "--input", str(path), "--format", "json", "--group", "solo"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["correlations"] == {"prices": None, "returns": None}
        assert out == reference_json(analyze_panel(panel, ReportConfig(fmt="json")))

    def test_byte_identical_runs(self, panel_csv, tmp_path):
        one, two = tmp_path / "r1.md", tmp_path / "r2.md"
        args = ["report", "--input", str(panel_csv), "--group", "g"]
        assert run_cli(args + ["--out", str(one)]) == 0
        assert run_cli(args + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_blas_thread_count_moves_no_output_byte(self, tmp_path):
        # each correlation basis forms its Gram matrix in one BLAS call; 200 x 1200 is the benchmark's wide shape
        rng = np.random.default_rng(4)
        prices = 10.0 ** rng.uniform(2.0, 4.5, 200) * np.exp(np.cumsum(rng.normal(0.0, 0.03, (1200, 200)), axis=0))
        codes = tuple(a + b + c for a in "ABCDEFGH" for b in "ABCDE" for c in "ABCDE")
        path = tmp_path / "wide.csv"
        path.write_text(render_panel_csv(SeriesPanel("wide", MonthStamp(1979, 1), codes, np.round(prices, 3))))
        argv = ["report", "--format", "json", "--input", str(path)]
        one, two = (TestExitCodes._child(argv, stdout=subprocess.PIPE, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2"))
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout and one.stdout.startswith('{\n  "group": "panel"')

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

    @pytest.mark.parametrize("window, message", [
        (["--start", "1999-12"], "slice 1999-12..2003-12 out of range for series SYN (2000-01..2003-12)"),
        (["--end", "2004-01"], "slice 2000-01..2004-01 out of range for series SYN (2000-01..2003-12)"),
        (["--start", "2002-01", "--end", "2001-06"], "slice start 2002-01 is after end 2001-06"),
    ])
    def test_window_outside_the_span_is_data_error(self, tmp_path, capsys, window, message):
        path = tmp_path / "syn.csv"
        assert run_cli(["synth", "--intercept", "100", "--length", "48", "--out", str(path)]) == 0
        assert run_cli(["report", "--input", str(path), *window]) == 2
        assert capsys.readouterr() == ("", f"data error: {message}\n")

    @pytest.mark.parametrize("group", ["../escaped", "a/b"])
    def test_group_with_a_path_separator_writes_no_chart(self, panel_csv, tmp_path, capsys, group):
        charts = tmp_path / "out" / "charts"
        assert run_cli(["report", "--input", str(panel_csv), "--charts", str(charts), "--group", group]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: group {group!r} cannot name a chart file")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "b.csv", "panel.csv"]


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

    def test_json_report_matches_golden_file(self, golden_csv, capsysbinary):
        assert run_cli(["report", "--input", str(golden_csv), "--group", "twosynth", "--format", "json"]) == 0
        assert capsysbinary.readouterr().out == (DATA_DIR / "golden_report.json").read_bytes()

    def test_report_and_decompose_build_no_per_currency_record(self, golden_csv, tmp_path, monkeypatch,
                                                               capsysbinary):
        argvs = [["report", "--input", str(golden_csv), "--group", "twosynth", "--format", "json",
                  "--charts", str(tmp_path / "charts")], ["decompose", "--input", str(golden_csv)]]
        chart = tmp_path / "charts" / "twosynth_seasonal_deviation.csv"

        def outputs():
            printed = []
            for argv in argvs:
                assert run_cli(argv) == 0
                printed.append(capsysbinary.readouterr().out)
            return printed, chart.read_bytes()

        expected = outputs()
        assert expected[0][0] == (DATA_DIR / "golden_report.json").read_bytes()

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        for record in (SeasonalIndices, DecompositionResult, TrendLine, AccuracyMetrics, MeanReturnStat,
                       MonthlyReturnSummary):
            monkeypatch.setattr(record, "__init__", refuse)
        chart.unlink()
        assert outputs() == expected

    @pytest.mark.parametrize("command, index", [("returns", 1), ("correlate", 2), ("decompose", 3)])
    def test_subcommand_prints_its_report_section(self, golden_csv, capsys, command, index):
        sections = (DATA_DIR / "golden_report.md").read_text(encoding="utf-8").split("\n\n## ")
        assert run_cli([command, "--input", str(golden_csv)]) == 0
        assert capsys.readouterr().out == "## " + sections[index].rstrip("\n") + "\n"

    def test_single_currency_correlate_fails_but_report_omits_it(self, tmp_path, capsys):
        path = tmp_path / "solo.csv"
        path.write_text(render_panel_csv(SeriesPanel.from_series("solo", two_currency_panel().series[:1])))
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

    @staticmethod
    def _child(argv, stdout=subprocess.DEVNULL, shell_redirect="", preexec_fn=None, **env):
        """`goldseason <argv>` in a fresh interpreter, its stdout `stdout` or else the one `shell_redirect` makes.

        `env` adds variables to the child's environment, and `preexec_fn` runs in the child before it starts.
        """
        env = dict(os.environ, PYTHONPATH=str(Path(goldseason.__file__).resolve().parents[1]), **env)
        command = [sys.executable, "-m", "goldseason.cli", *argv]
        if shell_redirect:
            command = ["/bin/sh", "-c", f'exec "$@" {shell_redirect}', "sh", *command]
        return subprocess.run(command, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
                              preexec_fn=preexec_fn)

    def test_directory_input_is_usage_error_naming_it(self, tmp_path):
        proc = self._child(["report", "--input", str(tmp_path)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert [line for line in proc.stderr.splitlines() if not line.startswith("usage:")] == [
            f"error: input is not a file: {tmp_path}"]

    @pytest.mark.parametrize("command, sink", [  # a report's cases are named by the sink alone
        pytest.param(command, sink, id=sink if command == "report" else f"{command}-{sink}")
        for command in ("report", "returns", "correlate", "decompose", "synth")
        for sink in ("closed", "full", "broken pipe")])
    def test_unwritable_stdout_exits_1_with_one_error_line(self, panel_csv, command, sink):
        argv = {"report": ["report", "--format", "json", "--input", str(panel_csv)],
                "synth": ["synth", "--intercept", "100"]}.get(command, [command, "--input", str(panel_csv)])
        if sink == "closed":
            proc = self._child(argv, shell_redirect=">&-")
        elif sink == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            proc = self._child(argv, shell_redirect="> /dev/full")
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = self._child(argv, stdout=write_end)
            finally:
                os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr

    @pytest.mark.parametrize("failing", ["out", "chart"])
    def test_a_write_past_the_file_size_limit_leaves_the_earlier_file(self, panel_csv, tmp_path, failing):
        resource = pytest.importorskip("resource")
        out, chart = tmp_path / "out" / "report.json", tmp_path / "charts" / "panel_seasonal_deviation.csv"
        earlier = {out: b"an earlier report\n", chart: b"month,AAA\n"}
        for path, data in earlier.items():
            path.parent.mkdir()
            path.write_bytes(data)
        limit = 4096 if failing == "out" else 64  # the JSON is larger than 4096 bytes, the chart than 64

        def limit_file_size():  # in the child alone; CPython ignores SIGXFSZ, so the write fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        argv = ["report", "--format", "json", "--input", str(panel_csv), "--out", str(out),
                "--charts", str(chart.parent)]
        proc = self._child(argv, preexec_fn=limit_file_size, PYTHONDONTWRITEBYTECODE="1")
        assert proc.returncode == 1
        failed = out if failing == "out" else chart
        assert proc.stderr.splitlines() == [f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{failed}'"]
        assert out.read_bytes() == earlier[out]  # a chart that fails is written before the report
        if failing == "chart":
            assert chart.read_bytes() == earlier[chart]
        assert [path.name for path in out.parent.iterdir()] == [out.name]  # no temporary file is left
        assert [path.name for path in chart.parent.iterdir()] == [chart.name]

    def test_out_on_a_device_writes_through_it(self, panel_csv):
        # a device is opened as before, never replaced by a renamed temporary file
        assert run_cli(["report", "--input", str(panel_csv), "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_out_replaces_the_file_a_symbolic_link_names(self, panel_csv, tmp_path, capsys):
        target, link = tmp_path / "out" / "report.md", tmp_path / "link.md"
        target.parent.mkdir()
        target.write_text("an earlier, longer report\n" * 1000)
        link.symlink_to(target)
        assert run_cli(["report", "--input", str(panel_csv), "--out", str(link)]) == 0
        assert run_cli(["report", "--input", str(panel_csv)]) == 0
        assert link.is_symlink() and target.read_text() == capsys.readouterr().out
        assert [path.name for path in target.parent.iterdir()] == [target.name]

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

    @pytest.mark.parametrize("tiny, after", [(1e-310, 100.0), (1e-300, 1e10)])
    @pytest.mark.parametrize("command", ["returns", "correlate", "decompose", "report"])
    def test_overflowing_return_is_numeric_error(self, tmp_path, capsys, command, tiny, after):
        rows = ["date,AAA,BBB"] + [f"{2000 + i // 12}-{i % 12 + 1:02d},{100.0 + i % 5},{50.0 + i % 7}"
                                   for i in range(36)]
        rows[5] = f"2000-05,{tiny},54.0"
        rows[6] = f"2000-06,{after},55.0"
        path = tmp_path / "overflow.csv"
        path.write_text("\n".join(rows) + "\n")
        for fmt in ("md", "json"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli([command, "--input", str(path), "--format", fmt])
            captured = capsys.readouterr()
            assert code in (0, 3)
            assert caught == []
            assert "inf" not in captured.out.lower()
            assert "Traceback" not in captured.err
            if command in ("returns", "correlate", "report"):
                assert code == 3
                assert "AAA at 2000-0" in captured.err

    @pytest.mark.parametrize("command", ["returns", "report"])
    def test_overflowing_return_wins_in_every_column_order(self, tmp_path, capsys, command):
        # 24 months leave calendar month 1 one return; the overflow is still reported first
        rows = [(f"{2000 + i // 12}-{i % 12 + 1:02d}", 100.0 + i % 5, 50.0 + i % 7) for i in range(24)]
        rows[3] = ("2000-04", 1e-310, 53.0)
        for columns in ((1, 2), (2, 1)):
            codes = ",".join(("AAA", "BBB")[j - 1] for j in columns)
            path = tmp_path / f"two-{codes}.csv"
            path.write_text(f"date,{codes}\n" + "".join(f"{r[0]},{r[columns[0]]!r},{r[columns[1]]!r}\n" for r in rows))
            assert run_cli([command, "--input", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "numeric error: return of AAA at 2000-05 is not finite: price 104.0 after 1e-310\n"

    @pytest.mark.parametrize("command", ["returns", "report"])
    def test_tiny_price_keeps_month_tests_finite(self, tmp_path, capsys, command):
        # a 1e-290 price makes the next return about 1e292, whose square overflows
        rows = ["date,AAA,BBB"] + [f"{2000 + i // 12}-{i % 12 + 1:02d},{100.0 + i % 5},{50.0 + i % 7}"
                                   for i in range(36)]
        rows[5] = "2000-05,1e-290,54.0"
        path = tmp_path / "tiny.csv"
        path.write_text("\n".join(rows) + "\n")
        for fmt in ("md", "json"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli([command, "--input", str(path), "--format", fmt])
            captured = capsys.readouterr()
            assert code == 0
            assert caught == []
            assert captured.err == ""
        returns = json.loads(captured.out)["returns"]["AAA"]
        for record in (returns["per_month"][5], returns["overall"]):  # June holds the 1e292 return
            assert np.isfinite(record["t_stat"]) and record["t_stat"] != 0.0
            assert 0.0 < record["p_value"] < 1.0

    def _run_quietly(self, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv)
        assert caught == []
        return code

    def _dipping_csv(self, tmp_path, low):
        path = tmp_path / "dips.csv"
        panel = SeriesPanel("g", MonthStamp(2000, 1), ("AAA", "BBB"), dipping_prices(low))
        path.write_text(render_panel_csv(panel))
        return path

    def test_month_sums_near_the_largest_double_stay_finite(self, tmp_path, capsys):
        # AAA's 1e-300 Januaries make three February returns near 1e308, whose unscaled sum overflows
        path = self._dipping_csv(tmp_path, 1e-300)
        assert self._run_quietly(["returns", "--input", str(path), "--format", "json"]) == 0
        returns = json.loads(capsys.readouterr().out)["returns"]["AAA"]
        for record in returns["per_month"] + [returns["overall"]]:
            assert all(np.isfinite(record[key]) for key in ("mean", "t_stat", "p_value"))
        february = returns["per_month"][1]
        assert february["n"] == 5 and 1e307 < february["mean"] < 1e308

    def test_percent_of_a_huge_month_mean_prints_exactly(self, tmp_path, capsys):
        # a February mean near 6e306 is finite, but 100 times it is not
        path = self._dipping_csv(tmp_path, 1e-299)
        assert self._run_quietly(["returns", "--input", str(path), "--format", "json"]) == 0
        mean = json.loads(capsys.readouterr().out)["returns"]["AAA"]["per_month"][1]["mean"]
        assert self._run_quietly(["returns", "--input", str(path)]) == 0
        table = capsys.readouterr().out
        assert f"| 2 | {int(mean) * 100}.00% |" in table
        assert "inf" not in table

    def test_unusable_seasonal_index_is_numeric_error(self, tmp_path, capsys):
        # levels over 1e-300..1e300 give indices near 1e-270, which deseasonalize prices past the largest double
        prices = 10.0 ** np.random.default_rng(3).uniform(-300.0, 300.0, (36, 2))
        path = tmp_path / "extreme.csv"
        path.write_text(render_panel_csv(SeriesPanel("g", MonthStamp(2000, 1), ("AAA", "BBB"), prices)))
        assert self._run_quietly(["decompose", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: deseasonalized value at ") and "seasonal index" in err

    def test_non_utf8_input_is_data_error(self, panel_csv, capsys):
        data = bytearray(panel_csv.read_bytes())
        data[2] = 0xFF  # inside the header
        panel_csv.write_bytes(bytes(data))
        assert run_cli(["report", "--input", str(panel_csv)]) == 2
        err = capsys.readouterr().err
        assert err == "data error: input is not UTF-8: byte 0xff at offset 2\n"

    @pytest.mark.parametrize("command", ["returns", "correlate", "decompose", "report"])
    def test_huge_prices_stay_finite(self, tmp_path, capsys, command):
        rows = [f"{2000 + i // 12}-{i % 12 + 1:02d}" for i in range(48)]
        plain, huge = tmp_path / "plain.csv", tmp_path / "huge.csv"
        for path, scale in ((plain, 1.0), (huge, 1e200)):
            path.write_text("date,AAA,BBB\n" + "".join(
                f"{stamp},{scale * (100.0 + i % 5)!r},{scale * (50.0 + (3 * i) % 7)!r}\n"
                for i, stamp in enumerate(rows)))
        for fmt in ("md", "json"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli([command, "--input", str(huge), "--format", fmt])
            out = capsys.readouterr().out
            assert code == 0
            assert caught == []
            assert "inf" not in out.lower() and "nan" not in out.lower()
        assert run_cli(["correlate", "--input", str(plain), "--format", "json"]) == 0
        plain_corr = json.loads(capsys.readouterr().out)["correlations"]
        assert run_cli(["correlate", "--input", str(huge), "--format", "json"]) == 0
        huge_corr = json.loads(capsys.readouterr().out)["correlations"]
        for basis in ("prices", "returns"):
            np.testing.assert_allclose(huge_corr[basis]["values"], plain_corr[basis]["values"], rtol=1e-12)

    @pytest.mark.parametrize("quorum", ["0", "99"])
    def test_quorum_out_of_range_is_data_error(self, panel_csv, capsys, quorum):
        assert run_cli(["decompose", "--input", str(panel_csv), "--quorum", quorum]) == 2
        assert capsys.readouterr().err == f"data error: quorum must be in 1..2, got {quorum}\n"

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "goldseason" in capsys.readouterr().out
