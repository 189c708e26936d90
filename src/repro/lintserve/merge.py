"""Deterministic merge of sharded unit results into lint reports.

The scheduler fans a file's analysis into independent units
(structure, one verifier sweep per lowering target, optionally the
advisor); workers return each unit as a JSON-serializable dict so
results can cross process boundaries and live in the on-disk cache
(:mod:`repro.lintserve.cache`). This module owns both directions:

* :func:`serialize_*` — unit output → plain dict (what workers return
  and the cache stores);
* :func:`assemble_file_report` — the dicts of one file's units →
  :class:`~repro.core.analysis.lint.LintReport`, using the *same*
  collapse/suppress/sort functions the reference
  :func:`~repro.core.analysis.lint.lint_program` runs.

Because diagnostics round-trip exactly
(:func:`~repro.core.analysis.codes.diagnostic_from_dict`) and the
merge functions are shared, a report assembled from sharded (or
cached) units renders byte-identically to ``lint_program``'s —
``tests/lintserve/test_determinism.py`` pins this over the whole
examples tree in JSON and SARIF.
"""

from __future__ import annotations

from typing import Any

from repro.core.analysis.codes import (
    Diagnostic,
    diagnostic_from_dict,
    make,
)
from repro.core.analysis.lint import (
    LintReport,
    collapse_across_targets,
    finalize_report,
)
from repro.core.clauses import Target

__all__ = [
    "assemble_file_report",
    "serialize_diagnostics",
    "serialize_structure",
]


def serialize_diagnostics(diags: list[Diagnostic]) -> list[dict]:
    """Diagnostics → JSON-ready dict list (exact round trip)."""
    return [d.as_dict() for d in diags]


def serialize_structure(report: LintReport) -> dict:
    """The structure unit's report fields → JSON-ready dict."""
    return {
        "n_directives": report.n_directives,
        "n_regions": report.n_regions,
        "sync_calls": report.sync_calls,
        "sync_reduction": report.sync_reduction,
        "patterns": {str(line): name
                     for line, name in report.patterns.items()},
        "diagnostics": serialize_diagnostics(report.diagnostics),
    }


def _deserialize_diags(entries: Any) -> list[Diagnostic]:
    return [diagnostic_from_dict(e) for e in entries]


def parse_error_report(path: str, error: dict) -> LintReport:
    """The report for a file the parser rejected (CI000).

    A bare report (default target list) carrying one CI000
    diagnostic at the parser's line.
    """
    report = LintReport(path=path)
    report.diagnostics.append(make(
        "CI000", int(error.get("line", 0)), str(error["message"])))
    return report


def assemble_file_report(path: str, units: dict[str, dict],
                         swept: list[Target],
                         advise: bool) -> LintReport:
    """Merge one file's unit results into its final report.

    ``units`` maps unit names — ``"structure"``,
    ``"verify:<target>"``, ``"advise"`` — to worker/cache dicts. Any
    unit reporting a parse error collapses the file to the CI000
    report (every unit parses the same source, so all agree).
    """
    structure = units["structure"]
    if "parse_error" in structure:
        return parse_error_report(path, structure["parse_error"])

    swept_values = [t.value for t in swept]
    report = LintReport(path=path, targets=list(swept_values))
    report.n_directives = int(structure["n_directives"])
    report.n_regions = int(structure["n_regions"])
    report.sync_calls = int(structure["sync_calls"])
    report.sync_reduction = float(structure["sync_reduction"])
    report.patterns = {int(line): str(name)
                       for line, name in structure["patterns"].items()}
    report.diagnostics = _deserialize_diags(structure["diagnostics"])

    per_target: dict[str, list[Diagnostic]] = {}
    for value in swept_values:
        unit = units[f"verify:{value}"]
        per_target[value] = _deserialize_diags(unit["diagnostics"])
    collapsed = collapse_across_targets(per_target, swept_values)

    advisories: list[Diagnostic] = []
    if advise:
        advisories = _deserialize_diags(units["advise"]["diagnostics"])
    return finalize_report(report, collapsed, advisories)
