"""Child process of the benchmark: calls ``goldseason.cli.run_cli`` in one warm interpreter.

Usage: ``python3 perfbench/warm.py REQUEST.json`` with ``src/`` on
PYTHONPATH. The request names the argv list to cycle through, how many
seconds to run, and whether to trace. The child writes a result JSON (the
wall time, exit code and output digest of every call, plus trace spans)
and saves the first output of each argv for the parent to check against
its oracles.

Tracing wraps the public functions of each layer from outside the package,
by rebinding the module globals that hold them, and keeps spans in memory
as ``[name, start, end, parent, count]``. Untraced and traced calls
alternate, so the parent can report what tracing itself costs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from statistics import median

PROBE_REPEATS = 3


def digest(report: bytes, chart: bytes | None) -> str:
    return hashlib.sha256(report + b"\0charts\0" + (chart or b"")).hexdigest()


class Tracer:
    """Spans of one traced call, plus the last result seen under each span name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.last: dict = {}

    def wrap(self, name, fn, count=None, label=None):
        def traced(*args, **kwargs):
            span = [label(args, kwargs) if label else name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[4] = count(result)
            self.last[span[0]] = result
            return result

        return traced


def _targets():
    """(function, span name, count of work done, label from arguments) for each layer boundary."""
    # The package re-exports a function named ``decompose``, so fetch the modules by name.
    decompose, report, series, stats = (importlib.import_module(f"goldseason.{name}")
                                        for name in ("decompose", "report", "series", "stats"))

    def basis(args, kwargs):
        return "stats.corr_" + kwargs.get("basis", args[1] if len(args) > 1 else stats.PRICES)

    def cells(analysis):
        start, end = analysis.span
        return len(analysis.summaries) * (end.index() - start.index() + 1)

    return [
        (series.parse_panel_csv, "series.parse", None, None),
        (series.slice_span, "series.slice", None, None),
        (series.to_returns, "series.to_returns", None, None),
        (stats.monthly_mean_returns, "stats.monthly", lambda r: len(r.per_month) + 1, None),
        (stats.correlation_matrix, "stats.corr", lambda m: len(m.labels) * (len(m.labels) - 1) // 2, basis),
        (decompose.decompose, "decompose.decompose", lambda r: len(r.fitted), None),
        (report.analyze_panel, "report.analyze", cells, None),
        (report.classify_month_signs, "report.signs", None, None),
        (report.render_markdown, "report.render_md", lambda text: len(text.encode("utf-8")), None),
        (report.render_json, "report.render_json", lambda text: len(text.encode("utf-8")), None),
        (report.emit_chart_data, "report.charts", lambda path: path.stat().st_size, None),
    ]


class Patches:
    """Rebinds every goldseason module global that holds a target function to its traced wrapper."""

    def __init__(self, tracer: Tracer) -> None:
        self.wrappers = {id(fn): tracer.wrap(name, fn, count, label) for fn, name, count, label in _targets()}
        self.saved: list = []

    def __enter__(self):
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "goldseason"]:
            for attr, value in vars(module).items():
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None:
                    self.saved.append((module, attr, value))
        for module, attr, value in self.saved:
            setattr(module, attr, self.wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in self.saved:
            setattr(module, attr, value)
        self.saved.clear()


class Runner:
    def __init__(self, request: dict) -> None:
        from goldseason import cli

        self.run_cli = cli.run_cli
        self.argvs = request["argvs"]
        self.out = Path(request["out"])
        self.chart = Path(request["chart"]) if request["chart"] else None
        self.work = Path(request["work"])
        self.first: dict[int, list[str | None]] = {}

    def call(self, idx: int, run_cli) -> dict:
        """One call; the output files are read and hashed after the clock stops."""
        for path in (self.out, self.chart):
            if path is not None:
                path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = run_cli(self.argvs[idx])
        except Exception:  # a traceback is a failed call; keep measuring the rest
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        report = self.out.read_bytes() if self.out.is_file() else b""
        chart = self.chart.read_bytes() if self.chart is not None and self.chart.is_file() else None
        if idx not in self.first:
            saved = [self.work / f"first-{idx}.report", None]
            saved[0].write_bytes(report)
            if chart is not None:
                saved[1] = self.work / f"first-{idx}.chart"
                saved[1].write_bytes(chart)
            self.first[idx] = [str(p) if p else None for p in saved]
        return {"idx": idx, "wall": wall, "code": code, "digest": digest(report, chart)}


def _probes(tracer: Tracer, seen: set, chart_dir: Path) -> dict:
    """Time layers the workload's own calls did not reach, on the panel and analysis it built."""
    from goldseason import report, series

    panel = tracer.last["series.parse"]
    analysis = tracer.last["report.analyze"]
    first = panel.start
    last = first.shift(min(len(panel.series[0]), 120) - 1)
    probes = {
        "series.slice": lambda: [series.slice_span(s, first, last) for s in panel.series],
        "report.render_md": lambda: report.render_markdown(analysis),
        "report.render_json": lambda: report.render_json(analysis),
        "report.charts": lambda: report.emit_chart_data(analysis.group, dict(analysis.decompositions), chart_dir),
    }
    out = {}
    for name, probe in probes.items():
        if name in seen:
            continue
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            probe()
            times.append(time.perf_counter() - t0)
        out[name] = median(times)
    return out


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    runner = Runner(request)
    traced = request["trace"]
    n = len(runner.argvs)
    runner.call(0, runner.run_cli)  # warm-up: lazy set-up finishes before timing
    calls = []
    tracer = Tracer()
    seen: set = set()
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < request["seconds"]:
        idx = i % n
        calls.append(runner.call(idx, runner.run_cli))
        if traced:
            tracer.spans = []
            root = tracer.wrap("cli.run", runner.run_cli)
            with Patches(tracer):
                record = runner.call(idx, root)
            record["spans"] = tracer.spans
            seen.update(span[0] for span in tracer.spans)
            calls.append(record)
        i += 1
    result = {"calls": calls, "first": runner.first}
    if traced:
        from goldseason import series

        text = Path(request["input"]).read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            series.parse_panel_csv(text)
            result["parse_alloc_mib"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        result["probes"] = _probes(tracer, seen, runner.work / "probe-charts")
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
