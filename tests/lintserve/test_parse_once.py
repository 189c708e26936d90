"""Each file is parsed once per lint run, shared by its units."""

from pathlib import Path

import pytest

from repro.core.pragma import parse_program
from repro.core.pragma.__main__ import render_reports
from repro.lintserve import lint_sources
from repro.lintserve import scheduler

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "pragmas"
FILES = [EXAMPLES / "ring.c", EXAMPLES / "slow" / "early_sync.c",
         EXAMPLES / "races" / "send_reuse.c"]


@pytest.fixture
def parses(monkeypatch):
    """Count the parser calls the scheduler makes."""
    calls = []

    def counting(source):
        calls.append(source)
        return parse_program(source)

    scheduler._parse.cache_clear()
    monkeypatch.setattr(scheduler, "parse_program", counting)
    yield calls
    scheduler._parse.cache_clear()


def _sources():
    return [(str(p), p.read_text()) for p in FILES]


def test_one_parse_per_file(parses):
    reports, stats = lint_sources(_sources(), advise=True)
    assert stats.units_executed == 5 * len(FILES)
    assert parses == [source for _, source in _sources()]
    assert len(reports) == len(FILES)


def test_broken_file_gives_every_unit_the_same_parse_error(parses):
    broken = "#pragma comm_p2p sender(\n"
    results = [scheduler.run_unit(spec) for spec in scheduler.file_units(
        "broken.c", broken, 8, None, list(scheduler.Target), True)]
    assert len(parses) == 1
    errors = [r["parse_error"] for r in results]
    assert len(results) == 5 and all(e == errors[0] for e in errors)
    (report,), _ = lint_sources([("broken.c", broken)], advise=True)
    assert [d.code for d in report.diagnostics] == ["CI000"]


def test_shared_program_is_not_mutated(parses):
    # The memo hands every unit the same Program: linting must leave it
    # printing as a fresh parse does, and a second run render the same.
    sources = _sources()
    first, _ = lint_sources(sources, advise=True)
    path, source = sources[-1]
    assert scheduler._parse(source).to_source() == \
        parse_program(source).to_source()
    second, _ = lint_sources(sources, advise=True)
    for fmt in ("json", "sarif"):
        assert render_reports(first, fmt) == render_reports(second, fmt)
