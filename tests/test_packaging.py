"""The runtime needs numpy only: scipy is a test-only oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goldseason

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(goldseason.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
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


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [req for req in project["dependencies"] if req.lower().startswith("scipy")] == []
    assert any(req.lower().startswith("scipy") for req in project["optional-dependencies"]["test"])
