"""Benchmark of the goldseason CLI: seeded panels, three workloads, oracle-checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one client, no concurrency):

* ``paper``: cold ``goldseason report --format md`` processes on a
  12 x 446 panel from 1979-01, the paper's own scale. Interpreter start and
  import dominate.
* ``wide``: cold ``goldseason report --format json --charts DIR`` processes
  on a 200 x 1200 panel. Parsing and the two correlation matrices dominate.
* ``rolling``: one warm process calling ``goldseason.cli.run_cli`` for
  ``report --format json --start S --end E`` over 120-month windows stepping
  one month across the paper panel. Fixed per-call costs dominate.

With ``--trace 0`` the end-to-end metrics are measured on untraced runs.
With ``--trace 1`` a warm child alternates untraced and traced calls of the
same workload and reports per-layer metrics from its spans, plus the import
breakdown from ``python -X importtime``. The last line of standard output is
the result as one JSON object; the line before it holds the details
(inputs, tail percentile, error rate, provenance).

The program is run from ``src/`` of the checkout holding this directory; it
is never installed or imported by this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import oracles
from panels import Panel, PanelShape, make_panel
from warm import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAPER = PanelShape(currencies=12, months=446)  # WGC 1979-01..2016-02
WIDE = PanelShape(currencies=200, months=1200)
WINDOW = 120
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CALL_LIMIT_S = 150.0  # a program that hangs is killed and counted as failed
ENTRY = "import sys; from goldseason.cli import main; sys.argv[0] = 'goldseason'; main()"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Outcome:
    """What the timed invocations of one run produced."""

    walls: list = field(default_factory=list)
    rss_mib: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(why)


class Checker:
    """Oracle checks, once per distinct argv; accepted output digests for the timed calls."""

    def __init__(self, panel: Panel) -> None:
        self.panel = panel
        self.accepted: dict = {}
        self.problems: list[str] = []

    def accept(self, key, window, fmt: str, report: bytes, chart: bytes | None) -> None:
        exp = oracles.expected(self.panel, *window)
        found = oracles.check_json(report, exp) if fmt == "json" else oracles.check_markdown(report, exp)
        if chart is not None:
            found += oracles.check_charts(chart, exp)
        if found:
            self.problems.extend(f"{key}: {p}" for p in found[:5])
        else:
            self.accepted[key] = digest(report, chart)

    def matches(self, key, output_digest: str) -> bool:
        return self.accepted.get(key) == output_digest


class Context:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.panel = make_panel(WIDE if workload == "wide" else PAPER, seed)
        self.input = work / "input.csv"
        self.input.write_bytes(self.panel.csv)
        self.checker = Checker(self.panel)
        self.chart_dir = work / "charts"
        self.chart = self.chart_dir / "panel_seasonal_deviation.csv"
        self.launcher = None

    def report_argv(self, fmt: str, window=None, charts: bool = False) -> list[str]:
        argv = ["report", "--format", fmt, "--input", str(self.input)]
        if window is not None:
            argv += ["--start", self.panel.stamp(window[0]), "--end", self.panel.stamp(window[1] - 1)]
        if charts:
            argv += ["--charts", str(self.chart_dir)]
        return argv

    def cells(self, window=None) -> int:
        months = self.panel.prices.shape[0] if window is None else window[1] - window[0]
        return months * self.panel.prices.shape[1]

    def spawn(self, argv: list[str], stdout: Path, limit: float = CALL_LIMIT_S):
        """Run one child to completion: (wall seconds, peak RSS MiB, exit code)."""
        if self.launcher is None:
            self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=self.env, cwd=ROOT,
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        stderr = self.work / "stderr"
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "limit": limit}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply["code"] != 0:
            tail = stderr.read_text(errors="replace")[-2000:]
            print(f"perfbench: {argv[-4:]} exited {reply['code']}: {tail}", file=sys.stderr)
        return reply["wall"], reply["rss_mib"], reply["code"]

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=CALL_LIMIT_S)
            self.launcher.stdout.close()

    def cold(self, argv: list[str]):
        return self.spawn([sys.executable, "-c", ENTRY, *argv], self.work / "stdout")


# ------------------------------------------------------------ measurements

def setup_seconds(ctx: Context) -> float:
    """Median wall time of a cold ``python -c "import goldseason.cli"``."""
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, _, code = ctx.spawn([sys.executable, "-c", "import goldseason.cli"], ctx.work / "stdout")
        if code != 0:
            raise RuntimeError("import goldseason.cli failed")
        walls.append(wall)
    return median(walls)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str, prefixes=("goldseason", "scipy", "numpy")) -> dict[str, float]:
    """Cumulative seconds per top-level package from ``-X importtime`` output.

    A package's time is the sum of the cumulative times of its outermost
    entries: those with no ancestor from the same package. Entries are
    listed after their children, indented two spaces per level.
    """
    entries = []  # (name, depth, cumulative us, parent index)
    pending: list[int] = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m is None:
            continue
        depth = len(m.group(3)) // 2
        idx = len(entries)
        entries.append([m.group(4), depth, int(m.group(2)), None])
        while pending and entries[pending[-1]][1] > depth:
            entries[pending.pop()][3] = idx
        pending.append(idx)

    def package(name: str) -> str:
        return name.split(".")[0]

    totals = {p: 0.0 for p in prefixes}
    for name, _, cumulative, parent in entries:
        top = package(name)
        if top not in totals:
            continue
        ancestor = parent
        while ancestor is not None and package(entries[ancestor][0]) != top:
            ancestor = entries[ancestor][3]
        if ancestor is None:
            totals[top] += cumulative / 1e6
    return totals


def import_breakdown(ctx: Context) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import goldseason.cli"],
                              env=ctx.env, cwd=ROOT, capture_output=True, text=True, timeout=CALL_LIMIT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import goldseason.cli failed: {proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{name}_s": median(run[name] for run in runs) for name in runs[0]}


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples beyond).

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported with zero samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def measure_cold(ctx: Context, fmt: str, charts: bool) -> Outcome:
    """Cold processes of one argv for the run's seconds; checked against the oracles afterwards."""
    stdout = ctx.work / "stdout"
    if fmt != "json":  # the JSON variant pins full-precision values to the oracles
        ctx.cold(ctx.report_argv("json"))
        ctx.checker.accept("json", (0, None), "json", stdout.read_bytes(), None)
    argv = ctx.report_argv(fmt, charts=charts)
    outcome = Outcome()
    calls = []  # (exit code, output digest)
    first = None
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < ctx.seconds:
        ctx.chart.unlink(missing_ok=True)
        wall, rss, code = ctx.cold(argv)
        report = stdout.read_bytes()
        chart = ctx.chart.read_bytes() if charts and ctx.chart.is_file() else None
        first = first or (report, chart)
        outcome.walls.append(wall)
        outcome.rss_mib.append(rss)
        calls.append((code, digest(report, chart)))
    ctx.checker.accept("timed", (0, None), fmt, *first)
    for code, output_digest in calls:
        ok = code == 0 and ctx.checker.matches("timed", output_digest)
        outcome.record(ok, f"exit {code}" if code else "output differs from the checked output")
    return outcome


def run_warm(ctx: Context, argvs: list, windows: list, fmt: str, charts: bool, trace: bool):
    """One warm child cycling through argvs; returns (Outcome, the child's result)."""
    out = ctx.work / "out"
    request = {
        "argvs": [argv + ["--out", str(out)] for argv in argvs],
        "out": str(out),
        "chart": str(ctx.chart) if charts else None,
        "seconds": ctx.seconds,
        "trace": trace,
        "input": str(ctx.input),
        "work": str(ctx.work),
        "result": str(ctx.work / "result.json"),
    }
    (ctx.work / "request.json").write_text(json.dumps(request))
    wall, rss, code = ctx.spawn([sys.executable, str(HERE / "warm.py"), str(ctx.work / "request.json")],
                                ctx.work / "stdout", limit=ctx.seconds + CALL_LIMIT_S)
    if code != 0:
        raise RuntimeError(f"warm child exited {code}")
    result = json.loads((ctx.work / "result.json").read_text())
    for idx, (report, chart) in result["first"].items():
        ctx.checker.accept(int(idx), windows[int(idx)], fmt, Path(report).read_bytes(),
                           Path(chart).read_bytes() if chart else None)
    outcome = Outcome(rss_mib=[rss])
    for call in result["calls"]:
        if "spans" not in call:
            outcome.walls.append(call["wall"])
        ok = call["code"] == 0 and ctx.checker.matches(call["idx"], call["digest"])
        outcome.record(ok, f"call {call['idx']}: exit {call['code']}" if call["code"] else
                       f"call {call['idx']}: output differs from the checked output")
    return outcome, result


def workload_calls(ctx: Context):
    """(argvs, windows, format, charts) of the workload's calls."""
    if ctx.workload == "rolling":
        windows = [(lo, lo + WINDOW) for lo in range(ctx.panel.prices.shape[0] - WINDOW + 1)]
        return [ctx.report_argv("json", w) for w in windows], windows, "json", False
    fmt, charts = ("md", False) if ctx.workload == "paper" else ("json", True)
    return [ctx.report_argv(fmt, charts=charts)], [(0, None)], fmt, charts


def end_to_end(ctx: Context):
    setup = setup_seconds(ctx)
    if ctx.workload == "rolling":
        argvs, windows, fmt, charts = workload_calls(ctx)
        outcome, _ = run_warm(ctx, argvs, windows, fmt, charts, trace=False)
        cells = ctx.cells((0, WINDOW))
    else:
        outcome = measure_cold(ctx, "md" if ctx.workload == "paper" else "json", ctx.workload == "wide")
        cells = ctx.cells()
    value, percentile, beyond = tail(outcome.walls)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_p50_s": (median(outcome.walls), "s"),
        "wall_tail_s": (value, "s"),
        "cells_per_s": (cells * len(outcome.walls) / sum(outcome.walls), "cells/s"),
        "peak_rss_mib": (max(outcome.rss_mib), "MiB"),
    }
    detail = {"wall_tail": {"percentile": percentile, "samples": len(outcome.walls), "beyond": beyond}}
    return metrics, outcome, detail


def _per_call(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced call; the root span (index 0) is ``cli.run``."""
    seconds: defaultdict = defaultdict(float)
    work: defaultdict = defaultdict(int)
    calls: defaultdict = defaultdict(int)
    children = 0.0
    for name, start, end, parent, count in spans:
        seconds[name] += end - start
        work[name] += count or 0
        calls[name] += 1
        if parent == 0:
            children += end - start
    duplicate = sum(end - start for name, start, end, parent, _ in spans
                    if name == "series.to_returns" and spans[parent][0] == "stats.corr_returns")
    pairs = work["stats.corr_prices"] + work["stats.corr_returns"]
    return {
        "cli.run_s": seconds["cli.run"],
        "cli.self_s": seconds["cli.run"] - children,
        "series.parse_s": seconds["series.parse"],
        "series.slice_s": seconds["series.slice"],
        "series.to_returns_s": seconds["series.to_returns"],
        "series.cells": work["report.analyze"],
        "stats.monthly_s": seconds["stats.monthly"],
        "stats.ttests": work["stats.monthly"],
        "stats.corr_prices_s": seconds["stats.corr_prices"],
        "stats.corr_returns_s": seconds["stats.corr_returns"],
        "stats.corr_pairs": pairs,
        "stats.corr_pairs_per_s": pairs / (seconds["stats.corr_prices"] + seconds["stats.corr_returns"]),
        "decompose.decompose_s": seconds["decompose.decompose"],
        "decompose.series": calls["decompose.decompose"],
        "decompose.points_per_s": work["decompose.decompose"] / seconds["decompose.decompose"],
        "report.analyze_s": seconds["report.analyze"],
        "report.signs_s": seconds["report.signs"],
        "report.render_md_s": seconds["report.render_md"],
        "report.render_json_s": seconds["report.render_json"],
        "report.charts_s": seconds["report.charts"],
        "report.bytes_out": work["report.render_md"] + work["report.render_json"] + work["report.charts"],
        "report.duplicate_returns_share": duplicate / seconds["report.analyze"],
    }


PROBED = {"series.slice": "series.slice_s", "report.render_md": "report.render_md_s",
          "report.render_json": "report.render_json_s", "report.charts": "report.charts_s"}
COUNTS = {"series.cells": "count", "stats.ttests": "count", "stats.corr_pairs": "count",
          "decompose.series": "count", "report.bytes_out": "bytes", "stats.corr_pairs_per_s": "pairs/s",
          "decompose.points_per_s": "points/s", "report.duplicate_returns_share": "ratio"}


def per_layer(ctx: Context):
    imports = import_breakdown(ctx)
    argvs, windows, fmt, charts = workload_calls(ctx)
    outcome, result = run_warm(ctx, argvs, windows, fmt, charts, trace=True)
    traced = [_per_call(call["spans"]) for call in result["calls"] if "spans" in call]
    values = {name: median(call[name] for call in traced) for name in traced[0]}
    for span_name, probe in result["probes"].items():
        values[PROBED[span_name]] = probe
    values["trace.overhead_s"] = values["cli.run_s"] - median(outcome.walls)
    values["series.parse_alloc_mib"] = result["parse_alloc_mib"]
    values.update(imports)
    metrics = {name: (value, COUNTS.get(name, "MiB" if name.endswith("_mib") else "s"))
               for name, value in values.items()}
    spans_file = ROOT / ".perfbench_work" / f"trace-{ctx.workload}-seed{ctx.seed}.json"
    spans_file.write_text(json.dumps([call["spans"] for call in result["calls"] if "spans" in call]))
    detail = {"traced_calls": len(traced), "untraced_calls": len(outcome.walls),
              "probed": sorted(PROBED[name] for name in result["probes"]), "spans_file": str(spans_file)}
    return metrics, outcome, detail


# -------------------------------------------------------------- provenance

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "src_lines": src_lines,
    }


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["paper", "wide", "rolling"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "goldseason" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'goldseason'} is missing", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".perfbench_work"))
    ctx = Context(args.workload, args.seed, args.seconds, work)
    try:
        # Compile the sources to bytecode once, untimed, as an installed package would ship them.
        ctx.spawn([sys.executable, "-c", "import goldseason.cli"], work / "stdout")
        metrics, outcome, detail = (per_layer if args.trace else end_to_end)(ctx)
    finally:
        ctx.close()
        shutil.rmtree(work, ignore_errors=True)

    problems = ctx.checker.problems + outcome.problems
    correct = not problems and outcome.failed == 0
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input": {"shape": list(ctx.panel.prices.shape), "bytes": len(ctx.panel.csv), "sha256": ctx.panel.sha256},
        "checked_outputs": len(ctx.checker.accepted),
        "error_rate": {"value": outcome.failed / max(outcome.attempted, 1), "unit": "ratio"},
        "problems": problems[:20],
        "provenance": provenance(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
