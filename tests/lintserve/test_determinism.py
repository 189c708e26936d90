"""Byte-identity of every ``repro-lint`` path with the reference lint.

The service's core contract: the default run, ``--jobs 8`` and a cold
and a warm ``--cache-dir`` run must render exactly the bytes of the
reference — :func:`~repro.core.analysis.lint.lint_program` run on each
file in turn, a CI000 report for a file that does not parse — over
the whole examples tree, including the seeded race counterexamples
(``races/``) and the minimized generated corpus (``generated/``). Plus
the incremental contract: editing one file re-executes exactly that
file's units.
"""

import json
from pathlib import Path

import pytest

from repro.core.analysis.codes import make
from repro.core.analysis.lint import LintReport, lint_program
from repro.core.pragma import parse_program
from repro.core.pragma.__main__ import main_lint, render_reports
from repro.errors import ReproError
from repro.lintserve import ResultCache, lint_sources

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "pragmas"


@pytest.fixture(scope="module")
def example_files():
    files = sorted(str(p) for p in EXAMPLES.rglob("*.c"))
    assert any("/races/" in f for f in files)
    assert any("/generated/" in f for f in files)
    return files


def _run(argv, capsys):
    rc = main_lint(argv)
    return rc, capsys.readouterr().out


def reference_lint(paths):
    """The per-file ``lint_program`` loop, independent of lintserve."""
    reports = []
    for path in paths:
        source = Path(path).read_text(encoding="utf-8")
        try:
            program = parse_program(source)
        except ReproError as exc:
            report = LintReport(path=path)
            report.diagnostics.append(
                make("CI000", getattr(exc, "line", None) or 0, str(exc)))
            reports.append(report)
            continue
        reports.append(lint_program(program, path=path))
    return reports


@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_parallel_and_cached_output_identical(example_files, tmp_path,
                                              capsys, fmt):
    reports = reference_lint(example_files)
    assert any(r.errors for r in reports)  # bad/ + races/ carry errors
    reference = render_reports(reports, fmt)
    base = example_files + ["--format", fmt]
    rc0, default = _run(base, capsys)
    rc1, parallel = _run(base + ["--jobs", "8"], capsys)
    cached = base + ["--jobs", "2", "--cache-dir", str(tmp_path / fmt)]
    rc2, cold = _run(cached, capsys)
    rc3, warm = _run(cached, capsys)
    assert rc0 == rc1 == rc2 == rc3 == 1
    assert default == parallel == cold == warm == reference


def test_warm_run_is_fully_memoized(example_files, tmp_path, capsys):
    argv = example_files + ["--cache-dir", str(tmp_path),
                            "--stats-out", str(tmp_path / "stats.json")]
    main_lint(argv)
    capsys.readouterr()
    main_lint(argv)
    capsys.readouterr()
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["units_executed"] == 0
    assert stats["hit_rate"] == 1.0
    assert stats["units_total"] == len(example_files) * 4


def test_stats_out_on_the_default_path(tmp_path, capsys):
    out = tmp_path / "stats.json"
    assert main_lint([str(EXAMPLES / "ring.c"),
                      "--stats-out", str(out)]) == 0
    capsys.readouterr()
    stats = json.loads(out.read_text())
    assert stats["files"] == 1 and stats["units_total"] == 4
    assert stats["units_executed"] == 4 and stats["jobs"] == 1


def test_editing_one_file_relints_exactly_its_units(tmp_path):
    sources = [("a.c", "double a[8];\n"), ("b.c", "double b[8];\n"),
               ("c.c", "double c[8];\n")]
    cache = ResultCache(tmp_path)
    _, cold = lint_sources(sources, cache=cache)
    assert cold.units_executed == cold.units_total == 12

    edited = list(sources)
    edited[1] = ("b.c", "double b[16];\n")
    _, warm = lint_sources(edited, cache=ResultCache(tmp_path))
    # 4 units per file at the default three-target sweep: exactly
    # b.c's structure unit + its three verify units re-execute.
    assert warm.units_executed == 4
    assert warm.units_from_cache == 8

    _, again = lint_sources(edited, cache=ResultCache(tmp_path))
    assert again.units_executed == 0


def test_rename_does_not_invalidate(tmp_path):
    sources = [("old.c", "double a[8];\n")]
    lint_sources(sources, cache=ResultCache(tmp_path))
    reports, stats = lint_sources([("new/dir.c", "double a[8];\n")],
                                  cache=ResultCache(tmp_path))
    assert stats.units_executed == 0
    assert reports[0].path == "new/dir.c"
