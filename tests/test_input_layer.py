"""The CSV parser, the --start/--end window and `align_panel` against row-by-row references."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldseason import (
    DataError,
    MonthStamp,
    NumericError,
    PriceSeries,
    ReportConfig,
    SeriesPanel,
    align_panel,
    analyze_panel,
    slice_span,
)
from goldseason.cli import run_cli
from goldseason.report import REPORT, RETURNS_SECTION, render_json, render_markdown
from goldseason.series import parse_panel_csv, render_panel_csv

from reference_parse import reference_parse_panel_csv

CODES = ("AAA", "BBB", "CCC")
STAMP_TEXTS = ["2000-1", "200-01", "2000-13", "2000-00", "2000/01", "", "abcd-ef", "99999-01", "2000-01-01",
               "1999-12", "\u0662\u0660\u0660\u0660-\u0660\u0661"]
PRICE_TEXTS = ["x", "-1", "0", "nan", "inf", "", "1e400", " 2.5", "1_000", "\uff11\uff12", "\u0661\u0662", " 12", "+5",
               ".5", "5.", "0x10", "#1", "  "]
# what `str.splitlines` breaks a line at and reading a file does not
BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def outcome(parse, text: str):
    """The panel a parser builds from text, or the type and message of what it raises."""
    try:
        return parse(text, "g")
    except Exception as exc:  # noqa: BLE001 - any exception is compared, not only DataError
        return type(exc), str(exc)


mutations = st.one_of(
    st.tuples(st.just("swap"), st.integers(0, 50), st.integers(0, 50)),
    st.tuples(st.just("duplicate"), st.integers(0, 50), st.just(None)),
    st.tuples(st.just("drop"), st.integers(0, 50), st.just(None)),
    st.tuples(st.just("malformed"), st.integers(0, 50), st.sampled_from(STAMP_TEXTS)),
    st.tuples(st.just("padded"), st.integers(0, 50), st.sampled_from([" ", "\t", "  ", "\u3000"])),
    st.tuples(st.just("cells"), st.integers(0, 50), st.sampled_from([-1, 1])),
    st.tuples(st.just("price"), st.integers(0, 50), st.sampled_from(PRICE_TEXTS)),
)


def mutate(rows: list[list[str]], kind: str, at: int, extra) -> None:
    i = at % len(rows)
    if kind == "swap":
        j = extra % len(rows)
        rows[i][0], rows[j][0] = rows[j][0], rows[i][0]
    elif kind == "duplicate":
        rows.insert(i, list(rows[i]))
    elif kind == "drop" and len(rows) > 1:
        del rows[i]
    elif kind == "malformed":
        rows[i][0] = extra
    elif kind == "padded":
        rows[i][0] = extra + rows[i][0] + extra
    elif kind == "cells":
        rows[i] = rows[i] + ["1.5"] if extra > 0 else rows[i][:max(1, len(rows[i]) - 1)]  # the stamp stays
    elif kind == "price":
        rows[i][-1] = extra
    elif kind == "break":
        rows[i][-1] += extra


@given(
    start=st.one_of(st.integers(0, 24), st.integers(1990 * 12, 2010 * 12), st.integers(9998 * 12, 9999 * 12 + 11)),
    n=st.integers(1, 30),
    k=st.integers(1, 3),
    edits=st.lists(mutations, max_size=3),
    trailer=st.sampled_from(["", "\n", "\n\n  \n", "\r\n"]),
    bom=st.booleans(),
)
@example(start=24000, n=5, k=2, edits=[("price", 1, "x"), ("duplicate", 3, None)], trailer="", bom=False)
@example(start=24000, n=5, k=1, edits=[("padded", 2, " ")], trailer="\n", bom=True)
@example(start=0, n=1, k=1, edits=[("price", 0, "")], trailer="", bom=False)  # "date,AAA\n0000-01,"
@example(start=24000, n=5, k=2, edits=[("price", 1, "x"), ("malformed", 3, "2000-13")], trailer="", bom=False)
@example(start=24000, n=5, k=2, edits=[("malformed", 2, "2000/01"), ("price", 2, "x")], trailer="", bom=False)
@example(start=24000, n=5, k=2, edits=[("cells", 2, -1), ("price", 2, "x")], trailer="", bom=False)  # short and bad
@example(start=24000, n=5, k=2, edits=[("price", 2, "1_000")], trailer="", bom=False)  # only float() reads it
@example(start=0, n=1, k=2, edits=[("cells", 0, 1)], trailer="", bom=False)  # every row has an extra cell
@example(start=24000, n=5, k=2, edits=[("price", 2, "")], trailer="", bom=False)  # an empty last cell mid-file
@settings(max_examples=400, deadline=None)
def test_parser_matches_the_row_by_row_reference(start, n, k, edits, trailer, bom):
    first = MonthStamp.from_index(start)
    rows = [[str(first.shift(i))] + [f"{1 + i + j / 4}" for j in range(k)] for i in range(n)]
    for kind, at, extra in edits:
        mutate(rows, kind, at, extra)
    text = ("\ufeff" if bom else "") + "\n".join(["date," + ",".join(CODES[:k])] + [",".join(r) for r in rows])
    text += trailer
    assert outcome(parse_panel_csv, text) == outcome(reference_parse_panel_csv, text)


@given(
    n=st.sampled_from([1, 2, 30, 3500]),  # 3500 rows span several of the file reader's chunks
    k=st.integers(1, 3),
    edits=st.lists(st.tuples(st.one_of(mutations, st.tuples(st.just("break"), st.integers(0, 50),
                                                           st.sampled_from(BREAKS))), st.booleans()), max_size=3),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    trailer=st.sampled_from(["", "\n", "\n\n  \n", "\r\n", "\n\x0c"]),
    bom=st.booleans(),
    bad_byte=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
@example(n=3500, k=2, edits=[], newline="\n", trailer="\n", bom=False, bad_byte=0.9)  # past the first chunk
@example(n=3500, k=3, edits=[], newline="\r\n", trailer="\n\n  \n", bom=True, bad_byte=None)
@example(n=30, k=2, edits=[(("break", 3, "\x0c"), False)], newline="\n", trailer="", bom=False, bad_byte=None)
@example(n=30, k=1, edits=[(("break", 0, "\u2028"), False)], newline="\r", trailer="\n", bom=False, bad_byte=None)
@example(n=3500, k=2, edits=[(("break", 50, "\x1c"), True)], newline="\n", trailer="\n", bom=False, bad_byte=None)
@settings(max_examples=150, deadline=None)
def test_file_reader_matches_the_row_by_row_reference(tmp_path_factory, n, k, edits, newline, trailer, bom, bad_byte):
    first = MonthStamp(1990, 7)
    table = [["date", *CODES[:k]]] + [[str(first.shift(i))] + [f"{1 + i + j / 4}" for j in range(k)]
                                      for i in range(n)]
    for (kind, at, extra), late in edits:  # a late edit lands in the last rows, past the first chunk of a long file
        mutate(table, kind, len(table) - 1 - at if late else at, extra)
    text = ("\ufeff" if bom else "") + newline.join(",".join(row) for row in table) + trailer
    data = bytearray(text.encode("utf-8"))
    if bad_byte is not None:
        data[round(bad_byte * (len(data) - 1))] = 0xFF
    path = tmp_path_factory.getbasetemp() / "reader.csv"
    path.write_bytes(data)
    try:
        expected = outcome(reference_parse_panel_csv, data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        expected = DataError, f"input is not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
    assert outcome(parse_panel_csv, path) == expected


def window_panel() -> SeriesPanel:
    rng = np.random.default_rng(7)
    months = np.arange(40)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.03, (40, 2)), axis=0))
    prices *= (1.0 + 0.02 * np.sin(2 * np.pi * months / 12))[:, None]
    return SeriesPanel("win", MonthStamp(2000, 1), ("AAA", "BBB"), prices)


def expected_run(panel: SeriesPanel, start, end, fmt: str, sections) -> tuple[int, str, str]:
    """What a windowed call prints, from the panel restacked out of `slice_span` of every series."""
    try:
        sliced = SeriesPanel.from_series(panel.group, [slice_span(s, start, end) for s in panel.series])
        analysis = analyze_panel(sliced, ReportConfig(fmt=fmt), sections)
        return 0, render_json(analysis) if fmt == "json" else render_markdown(analysis), ""
    except DataError as exc:
        return 2, "", f"data error: {exc}\n"
    except NumericError as exc:
        return 3, "", f"numeric error: {exc}\n"


@given(
    lo=st.one_of(st.none(), st.integers(-3, 43)),
    hi=st.one_of(st.none(), st.integers(-3, 43)),
    fmt=st.sampled_from(["md", "json"]),
    command=st.sampled_from(["report", "returns"]),
)
@example(lo=0, hi=39, fmt="json", command="report")
@example(lo=5, hi=2, fmt="md", command="report")
@example(lo=-1, hi=30, fmt="md", command="returns")
@example(lo=10, hi=40, fmt="json", command="report")
@settings(max_examples=80, deadline=None)
def test_window_matches_restacked_slices(tmp_path_factory, lo, hi, fmt, command):
    panel = window_panel()
    path = tmp_path_factory.getbasetemp() / "window.csv"
    path.write_text(render_panel_csv(panel))
    panel = parse_panel_csv(path.read_text(), panel.group)
    argv = [command, "--input", str(path), "--group", panel.group, "--format", fmt]
    start = panel.start if lo is None else panel.start.shift(lo)
    end = panel.end if hi is None else panel.start.shift(hi)
    argv += [] if lo is None else ["--start", str(start)]
    argv += [] if hi is None else ["--end", str(end)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    sections = REPORT if command == "report" else (RETURNS_SECTION,)
    assert (code, out.getvalue(), err.getvalue()) == expected_run(panel, start, end, fmt, sections)


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(2, 40)), min_size=1, max_size=4))
@settings(max_examples=100)
def test_align_panel_matches_restacked_slices(spans):
    series = [PriceSeries("ABCD"[j] * 3, MonthStamp.from_index(24000 + offset), 1.0 + np.arange(n) + j)
              for j, (offset, n) in enumerate(spans)]
    start = max(s.start for s in series)
    end = min(s.end for s in series)
    if end.index() - start.index() < 1:
        with pytest.raises(DataError):
            align_panel(series, "g")
        return
    expected = SeriesPanel.from_series("g", [slice_span(s, start, end) for s in series])
    assert align_panel(series, "g") == expected
