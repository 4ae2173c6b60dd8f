"""Tests of the benchmark itself: seeded inputs, oracle checks, and metric helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
from panels import PanelShape, make_panel  # noqa: E402
from run import PAPER, parse_importtime, tail  # noqa: E402

SMALL = PanelShape(currencies=5, months=96, start_year=2001, start_month=7)


def test_same_seed_gives_same_bytes():
    a, b = make_panel(PAPER, 11), make_panel(PAPER, 11)
    assert a.csv == b.csv
    assert a.sha256 == b.sha256
    assert (a.prices == b.prices).all()
    assert make_panel(PAPER, 12).csv != a.csv


def test_panel_follows_the_csv_contract():
    panel = make_panel(PAPER, 5)
    lines = panel.csv.decode("ascii").splitlines()
    assert lines[0].split(",")[0] == "date"
    assert len(set(panel.codes)) == 12 and all(len(c) == 3 and c.isalpha() for c in panel.codes)
    assert lines[1].startswith("1979-01,") and lines[-1].startswith("2016-02,")
    assert all(len(cell.split(".")[1]) == 3 for cell in lines[1].split(",")[1:])
    assert panel.prices.shape == (446, 12)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Reports the program writes for a small seeded panel: (panel, json, md, chart CSV)."""
    from goldseason.cli import run_cli

    tmp = tmp_path_factory.mktemp("reports")
    panel = make_panel(SMALL, 3)
    (tmp / "in.csv").write_bytes(panel.csv)
    common = ["report", "--input", str(tmp / "in.csv")]
    assert run_cli([*common, "--format", "json", "--out", str(tmp / "out.json")]) == 0
    assert run_cli([*common, "--format", "md", "--out", str(tmp / "out.md"), "--charts", str(tmp)]) == 0
    return (panel, (tmp / "out.json").read_text(), (tmp / "out.md").read_text(),
            (tmp / "panel_seasonal_deviation.csv").read_text())


def test_oracles_accept_the_programs_output(outputs):
    panel, doc, md, chart = outputs
    exp = oracles.expected(panel)
    assert oracles.check_json(doc, exp) == []
    assert oracles.check_markdown(md, exp) == []
    assert oracles.check_charts(chart, exp) == []


def test_oracles_accept_a_window(tmp_path):
    from goldseason.cli import run_cli

    panel = make_panel(SMALL, 4)
    (tmp_path / "in.csv").write_bytes(panel.csv)
    argv = ["report", "--format", "json", "--input", str(tmp_path / "in.csv"), "--out", str(tmp_path / "o.json"),
            "--start", panel.stamp(5), "--end", panel.stamp(64)]
    assert run_cli(argv) == 0
    exp = oracles.expected(panel, 5, 65)
    assert exp.n == 60
    assert oracles.check_json((tmp_path / "o.json").read_text(), exp) == []


# Each picks (container, key) of one value in a JSON report, given the tree and the currency codes.
PERTURBED = {
    "month t": lambda tree, codes: (tree["returns"][codes[0]]["per_month"][3], "t_stat"),
    "month p": lambda tree, codes: (tree["returns"][codes[1]]["per_month"][11], "p_value"),
    "overall mean": lambda tree, codes: (tree["returns"][codes[2]]["overall"], "mean"),
    "price r": lambda tree, codes: (tree["correlations"]["prices"]["values"][0], 1),
    "return p": lambda tree, codes: (tree["correlations"]["returns"]["p_values"][2], 4),
    "index": lambda tree, codes: (tree["decomposition"][codes[3]]["indices"], 5),
    "slope": lambda tree, codes: (tree["decomposition"][codes[4]], "slope"),
    "msd": lambda tree, codes: (tree["decomposition"][codes[0]], "msd"),
}


@pytest.mark.parametrize("which", sorted(PERTURBED))
def test_json_oracle_rejects_one_perturbed_value(outputs, which):
    panel, doc, _, _ = outputs
    tree = json.loads(doc)
    container, key = PERTURBED[which](tree, panel.codes)
    container[key] *= 1.0 + 1e-6
    assert len(oracles.check_json(json.dumps(tree), oracles.expected(panel))) == 1


def test_json_oracle_rejects_a_flipped_sign(outputs):
    panel, doc, _, _ = outputs
    tree = json.loads(doc)
    tree["signs"][0] = "+" if tree["signs"][0] != "+" else "-"
    assert oracles.check_json(json.dumps(tree), oracles.expected(panel))


def test_markdown_oracle_rejects_one_changed_cell(outputs):
    panel, _, md, _ = outputs
    lines = md.splitlines()
    row = lines.index("| Month | " + " | ".join(panel.codes) + " | Sign |") + 2
    cells = lines[row].split(" | ")
    cells[1] = f"{float(cells[1]) + 0.0002:.4f}"
    lines[row] = " | ".join(cells)
    assert oracles.check_markdown("\n".join(lines) + "\n", oracles.expected(panel))


def test_chart_oracle_rejects_one_changed_value(outputs):
    panel, _, _, chart = outputs
    lines = chart.splitlines()
    cells = lines[4].split(",")
    cells[2] = f"{float(cells[2]) + 0.001:.4f}"
    lines[4] = ",".join(cells)
    assert oracles.check_charts("\n".join(lines) + "\n", oracles.expected(panel))


def test_p_slack_is_wide_only_where_p_is_ill_conditioned():
    slack = oracles.p_slack(np.array([1.6e-7, 0.4, 2.0, 40.0]), 9)
    assert 1e-9 < slack[0] < 1e-6
    assert (slack[1:] < 1e-13).all()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail([float(v) for v in range(40, 0, -1)]) == (30.0, 75.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_parse_importtime_sums_outermost_entries_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        60 |        110 |     scipy",
        "import time:        70 |         70 |     scipy.special",
        "import time:        20 |        500 |   goldseason.series",
        "import time:        30 |       1000 | goldseason",
        "import time:         5 |          5 | json",
    ])
    assert parse_importtime(stderr) == pytest.approx({"goldseason": 1e-3, "scipy": 180e-6, "numpy": 300e-6})
