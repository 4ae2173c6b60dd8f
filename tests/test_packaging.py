"""The runtime needs numpy only: scipy is a test-only oracle. A cold process compiles no record methods and exits
through `main` with its heap frozen."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goldseason
from goldseason.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str, *args: str, text: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(goldseason.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=text,
                          timeout=120)


def test_cli_import_loads_no_scipy():
    proc = run_python("import sys, goldseason.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_report_runs_with_scipy_unimportable(tmp_path):
    rows = [f"{2000 + i // 12}-{i % 12 + 1:02d},{100.0 + i % 5},{50.0 + i % 7}" for i in range(48)]
    source = tmp_path / "panel.csv"
    source.write_text("date,AAA,BBB\n" + "\n".join(rows) + "\n")
    proc = run_python(
        "import sys; sys.modules['scipy'] = None\n"  # any import of scipy now raises ImportError
        "from goldseason.cli import run_cli\n"
        "sys.exit(run_cli(['report', '--format', 'json', '--input', sys.argv[1]]))",
        str(source),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert set(json.loads(proc.stdout)["returns"]) == {"AAA", "BBB"}


def test_a_report_loads_no_synth_and_the_package_still_exports_it(tmp_path):
    rows = [f"{2000 + i // 12}-{i % 12 + 1:02d},{100.0 + i % 5},{50.0 + i % 7}" for i in range(48)]
    source = tmp_path / "panel.csv"
    source.write_text("date,AAA,BBB\n" + "\n".join(rows) + "\n")
    proc = run_python(
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from goldseason.cli import run_cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = run_cli(['report', '--format', 'json', '--input', sys.argv[1]])\n"
        "print(code, 'goldseason.synth' in sys.modules)\n"
        "import goldseason\n"
        "names = {}\n"
        "exec('from goldseason import *', names)\n"
        "print(sorted(set(goldseason.__all__) - set(names)), names['generate_series'].__module__)",
        str(source),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n[] goldseason.synth\n"


def test_markdown_report_loads_no_json(tmp_path):
    """Only the JSON writer imports `json`; a markdown report, the paper-scale default, never loads it."""
    rows = [f"{2000 + i // 12}-{i % 12 + 1:02d},{100.0 + i % 5},{50.0 + i % 7}" for i in range(48)]
    source = tmp_path / "panel.csv"
    source.write_text("date,AAA,BBB\n" + "\n".join(rows) + "\n")
    proc = run_python(
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from goldseason.cli import run_cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = run_cli(['report', '--format', 'md', '--input', sys.argv[1]])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'json'))",
        str(source),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [req for req in project["dependencies"] if req.lower().startswith("scipy")] == []
    assert any(req.lower().startswith("scipy") for req in project["optional-dependencies"]["test"])


def test_cli_import_compiles_only_what_its_named_tuples_need():
    """Records are plain classes: importing the CLI compiles no source text beyond the two `NamedTuple`s'."""
    proc = run_python(
        "import sys, typing, numpy\n"
        "compiles = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and args[1] == '<string>' and compiles.append(args))\n"
        "import goldseason.cli\n"
        "records = len(compiles)\n"
        "from goldseason.stats import CorrelationTest, TTestResult\n"
        "for named in (TTestResult, CorrelationTest):  # as declared, with each type as a string\n"
        "    typing.NamedTuple(named.__name__, [(n, t.__forward_arg__) for n, t in named.__annotations__.items()])\n"
        "print(records, len(compiles) - records)"
    )
    assert proc.returncode == 0, proc.stderr
    records, named_tuples = map(int, proc.stdout.split())
    assert 0 < records <= named_tuples, proc.stdout


@pytest.mark.parametrize("case, code", [("synth", 0), ("missing", 1), ("gap", 2), ("flat", 3)])
def test_main_exits_with_the_code_and_output_of_run_cli_and_a_frozen_heap(tmp_path, capsys, case, code):
    source = tmp_path / f"{case}.csv"
    if case == "synth":
        assert run_cli(["synth", "--intercept", "100", "--slope", "0.5", "--noise-sd", "0.05", "--length", "48",
                        "--out", str(source)]) == 0
    elif case == "gap":
        source.write_text("date,AAA\n2000-01,1.0\n2000-03,2.0\n")
    elif case == "flat":
        assert run_cli(["synth", "--intercept", "100", "--out", str(source)]) == 0
    argv = ["report", "--input", str(source)]
    assert run_cli(argv) == code
    expected = capsys.readouterr().out
    proc = run_python(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from goldseason.cli import main; main()",
        *argv, text=False,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == expected.encode("utf-8")
    assert proc.stderr.decode("utf-8").endswith("frozen True\n"), proc.stderr
