"""Hostile clause arithmetic gets a diagnostic in bounded time.

Each probe under ``examples/pragmas/bad/`` would hang, exhaust memory
or raise from a bare evaluator. Linted with the advisor through
``lint_sources`` in a fresh interpreter, each must yield a parseable
JSON report carrying its CI032 finding within 10 s, with no traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BAD = ROOT / "examples" / "pragmas" / "bad"
PROBES = ["pow_overflow", "shift_overflow", "div_zero", "shift_negative"]

_LINT = """
import sys
from pathlib import Path
from repro.core.pragma.__main__ import render_reports
from repro.lintserve import lint_sources
path = sys.argv[1]
reports, _ = lint_sources([(path, Path(path).read_text())], advise=True)
print(render_reports(reports, "json"))
"""


@pytest.mark.parametrize("name", PROBES)
def test_probe_reports_within_bound(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LINT, str(BAD / f"{name}.c")],
        capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    (report,) = json.loads(proc.stdout)["reports"]
    ci032 = [d for d in report["diagnostics"] if d["code"] == "CI032"]
    assert ci032 and "cannot be evaluated" in ci032[0]["message"]
