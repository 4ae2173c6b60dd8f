"""Command-line front end.

Subcommands: ``returns`` (monthly mean-return tables), ``correlate``
(price and return correlation matrices), ``decompose`` (per-currency
seasonal decomposition with the consensus sign column), ``report`` (all of
the above, optionally writing chart CSVs), and ``synth`` (synthetic
fixture generation).

Exit codes: 0 success, 1 usage error or output fault, 2 data validation error,
3 numeric failure on degenerate input.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path
from typing import Iterable

from .decompose import ADDITIVE, MEAN, MEDIAN, MULTIPLICATIVE, _deviation_percent
from .errors import DataError, GoldseasonError, NumericError
from .report import (
    CORRELATIONS_SECTION,
    DECOMPOSITION_SECTION,
    FORMAT_JSON,
    FORMAT_MARKDOWN,
    REPORT,
    RETURNS_SECTION,
    ReportConfig,
    _write_chart,
    analyze_panel,
    json_pieces,
    render_markdown,
)
from .series import MonthStamp, SeriesPanel, parse_panel_csv, render_panel_csv, slice_span
from .synth import GeneratorSpec, generate_series


class UsageError(GoldseasonError):
    """Bad invocation: unknown flags, missing files, malformed flag values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # the parser is the same for every call; build it once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="goldseason", description="Calendar-month anomaly analysis for monthly price panels.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--input", required=True, help="CSV panel file (header date,<CODE>,...)")
    common.add_argument("--group", default="panel", help="panel label used in output")
    common.add_argument("--start", default=None, help="first month to analyze, YYYY-MM")
    common.add_argument("--end", default=None, help="last month to analyze, YYYY-MM")
    common.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
    common.add_argument("--format", dest="fmt", choices=[FORMAT_MARKDOWN, FORMAT_JSON],
                        default=FORMAT_MARKDOWN, help="output format (default md)")
    common.add_argument("--out", default=None, help="write output here instead of stdout")

    seasonal = _Parser(add_help=False)
    seasonal.add_argument("--model", choices=[ADDITIVE, MULTIPLICATIVE], default=MULTIPLICATIVE,
                          help="decomposition model (default multiplicative)")
    seasonal.add_argument("--aggregator", choices=[MEDIAN, MEAN], default=MEDIAN,
                          help="per-month aggregator for raw seasonals (default median)")
    seasonal.add_argument("--quorum", type=int, default=None,
                          help="currencies needed on one side for a +/- sign (default: all)")

    sub.add_parser("returns", parents=[common], help="monthly mean returns with significance stars")
    sub.add_parser("correlate", parents=[common], help="price and return correlation matrices")
    sub.add_parser("decompose", parents=[common, seasonal], help="seasonal decomposition per currency")
    report = sub.add_parser("report", parents=[common, seasonal], help="full analysis report")
    report.add_argument("--charts", default=None, help="directory for seasonal-deviation chart CSVs")

    synth = sub.add_parser("synth", help="generate a synthetic monthly series as CSV")
    synth.add_argument("--model", choices=[ADDITIVE, MULTIPLICATIVE], default=MULTIPLICATIVE)
    synth.add_argument("--intercept", type=float, required=True, help="trend value at t=1 (minus one slope)")
    synth.add_argument("--slope", type=float, default=0.0, help="trend slope per month")
    synth.add_argument("--indices", default=",".join(["1"] * 12),
                       help="12 comma-separated seasonal indices (default: twelve 1s, flat)")
    synth.add_argument("--noise-sd", type=float, default=0.0, dest="noise_sd")
    synth.add_argument("--length", type=int, default=240)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--start", default="2000-01", help="first month, YYYY-MM")
    synth.add_argument("--currency", default="SYN", help="three-letter column label")
    synth.add_argument("--out", default=None, help="write CSV here instead of stdout")
    return parser


def _parse_stamp_flag(value: str | None, flag: str) -> MonthStamp | None:
    if value is None:
        return None
    try:
        return MonthStamp.parse(value)
    except DataError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _load_panel(args) -> SeriesPanel:
    path = Path(args.input)
    if not path.is_file():
        raise UsageError(f"input is not a file: {path}" if path.exists() else f"input file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}") from None
    panel = parse_panel_csv(text, args.group)
    start = _parse_stamp_flag(args.start, "--start") or panel.start
    end = _parse_stamp_flag(args.end, "--end") or panel.end
    return slice_span(panel, start, end)


def _emit(pieces: Iterable[str], out: str | None) -> None:
    if out is None:
        if sys.stdout is None:  # the process started with its standard output closed
            raise OSError("standard output is closed")
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as stream:
            stream.writelines(pieces)


# The analysis sections each subcommand computes and prints.
_SECTIONS = {
    "returns": (RETURNS_SECTION,),
    "correlate": (CORRELATIONS_SECTION,),
    "decompose": (DECOMPOSITION_SECTION,),
    "report": REPORT,
}


def _from_flags(cls, args, **converted):
    """A `cls` record from the flags named like its fields, those in `converted` replaced by their values."""
    return cls(**{key: value for key, value in vars(args).items() if key in cls._fields} | converted)


def _cmd_analyze(args) -> Iterable[str]:
    panel = _load_panel(args)
    config = _from_flags(ReportConfig, args)
    analysis = analyze_panel(panel, config, _SECTIONS[args.command])
    if getattr(args, "charts", None):
        deviations = _deviation_percent(config.model, analysis.decomposition.indices)
        _write_chart(panel.group, panel.currencies, deviations, args.charts)
    return json_pieces(analysis) if config.fmt == FORMAT_JSON else [render_markdown(analysis)]


def _cmd_synth(args) -> Iterable[str]:
    parts = args.indices.split(",")
    if len(parts) != 12:
        raise UsageError(f"--indices needs 12 comma-separated values, got {len(parts)}")
    try:
        indices = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"--indices: {exc}") from None
    spec = _from_flags(GeneratorSpec, args, indices=indices, start=_parse_stamp_flag(args.start, "--start"))
    return [render_panel_csv(SeriesPanel.from_series("synthetic", (generate_series(spec),)))]


_COMMANDS = {**{command: _cmd_analyze for command in _SECTIONS}, "synth": _cmd_synth}


def run_cli(argv=None) -> int:
    """Parse arguments, run one subcommand, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(_COMMANDS[args.command](args), args.out)
        return 0
    except UsageError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    code = run_cli()
    gc.freeze()  # the exiting interpreter's collections then skip a heap the OS reclaims whole; atexit still runs
    sys.exit(code)


if __name__ == "__main__":
    main()
