"""Span-based profiling of simulated runs (``repro.profiling``).

This package holds the simulator's one event log. A profile records
**spans** — begin/end intervals in virtual time carrying directive,
sync-plan and message identity — plus capped zero-length **point
events** for happenings no span covers (``Env.trace``: blocks,
unblocks, other library calls). On the spans it builds the analyses the
paper's performance story needs:

* :mod:`repro.profiling.spans` — the :class:`Profile` recorder the
  engine and the communication libraries emit into
  (``Engine(profile=True)`` / ``RunResult.profile``);
* :mod:`repro.profiling.metrics` — per-rank / per-directive aggregation
  (bytes, message counts, time in post/compute/sync, realized-overlap
  ratio, forfeited-overlap seconds);
* :mod:`repro.profiling.chrome` — Chrome trace-event JSON exporter
  (loadable in Perfetto / ``chrome://tracing``);
* :mod:`repro.profiling.critpath` — critical-path extraction over the
  dynamic happens-before edges (reusing the verifier's
  :mod:`repro.core.analysis.hb` graph machinery);
* :mod:`repro.profiling.cli` — the ``repro-trace`` command line tool.

:func:`repro.sim.comm_matrix` reads the same ``message`` spans.

See ``docs/PROFILING.md`` for the span schema and metric definitions.
"""

from repro.profiling.spans import Profile, Span
from repro.profiling.metrics import ProfileMetrics, RankMetrics, aggregate
from repro.profiling.chrome import chrome_trace, export_chrome
from repro.profiling.critpath import CriticalPath, critical_path

__all__ = [
    "Profile",
    "Span",
    "ProfileMetrics",
    "RankMetrics",
    "aggregate",
    "chrome_trace",
    "export_chrome",
    "CriticalPath",
    "critical_path",
]
