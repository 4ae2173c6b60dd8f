"""Differential fuzz of the CLI report against the benchmark's independent oracles.

`perfbench/oracles.py` recomputes every JSON, markdown and chart value of a
default `report` from the prices with numpy and scipy, never with the
program. This property feeds it random panels instead of the benchmark's
three fixed shapes.
"""

import io
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from goldseason.cli import run_cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402
from panels import Panel  # noqa: E402

CODES = ("AAA", "BBB", "CCC", "DDD", "EEE", "FFF")


def random_panel(seed: int, k: int, n: int, start_index: int) -> Panel:
    """k random walks of n months, each at a level drawn log-uniformly from 1e-3..1e6."""
    rng = np.random.default_rng(seed)
    levels = 10.0 ** rng.uniform(-3.0, 6.0, size=k)
    steps = rng.normal(0.0, rng.uniform(0.005, 0.08, size=k), size=(n, k))
    prices = levels * np.exp(np.cumsum(steps, axis=0))
    lines = ["date," + ",".join(CODES[:k])]
    for row, values in enumerate(prices.tolist()):
        year, month0 = divmod(start_index + row, 12)
        lines.append(f"{year:04d}-{month0 + 1:02d}," + ",".join(map(repr, values)))
    return Panel(("\n".join(lines) + "\n").encode("ascii"), CODES[:k], prices, start_index)


def report(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("always")
        code = run_cli(argv)
    assert caught == []
    return code, err.getvalue()


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=2, max_value=6),
       st.integers(min_value=24, max_value=240), st.integers(min_value=1900 * 12, max_value=2100 * 12))
@settings(max_examples=30, deadline=None)
def test_report_matches_oracles(tmp_path_factory, seed, k, n, start_index):
    panel = random_panel(seed, k, n, start_index)
    work = tmp_path_factory.mktemp("fuzz")
    source, out, charts = work / "panel.csv", work / "report", work / "charts"
    source.write_bytes(panel.csv)
    if n == 24:  # 23 returns leave one calendar month with a single observation
        code, err = report(["report", "--input", str(source)])
        assert code == 2 and "1 observation(s)" in err
        return
    expected = oracles.expected(panel)
    for fmt, check in (("md", oracles.check_markdown), ("json", oracles.check_json)):
        code, err = report(["report", "--input", str(source), "--format", fmt, "--out", str(out),
                            "--charts", str(charts)])
        assert (code, err) == (0, "")
        assert check(out.read_text(encoding="utf-8"), expected) == []
        assert oracles.check_charts((charts / "panel_seasonal_deviation.csv").read_text(), expected) == []
