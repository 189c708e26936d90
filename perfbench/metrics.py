"""Names, units and predictions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
keeps the two in step. Each per-layer metric carries the end-to-end
metric it should move, the workloads it should move it on, and the
workloads on which it is predicted to stay unchanged, so a later change
can name its claim before it is measured.

``items_per_s`` is the one throughput metric every workload reports;
its item is the workload's unit of work (see :data:`THROUGHPUT`).
"""

from __future__ import annotations

#: (name, unit, better) of the end-to-end metrics, host wall-clock.
END_TO_END: list[tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: What ``items_per_s`` counts on each workload, under its own name.
THROUGHPUT: dict[str, tuple[str, str]] = {
    "lint_cold": ("files_per_s", "files/s"),
    "lint_incremental": ("files_per_s", "files/s"),
    "diffgen": ("seeds_per_s", "seeds/s"),
    "wllsms": ("rank_steps_per_s", "rank_steps/s"),
}

_ALL = ("lint_cold", "lint_incremental", "diffgen", "wllsms")

#: (name, unit, better, moves, on, unchanged_on).
PER_LAYER: list[tuple[str, str, str, str, tuple[str, ...],
                      tuple[str, ...]]] = [
    ("core.pragma.calls", "count", "lower", "items_per_s",
     ("lint_cold",), ("wllsms",)),
    ("core.pragma.parses_per_file", "ratio", "lower", "items_per_s",
     ("lint_cold",), ("wllsms",)),
    ("core.pragma.self_s", "s", "lower", "items_per_s",
     ("lint_cold",), ("wllsms",)),
    ("core.exprs.calls", "count", "lower", "request_p50_ms,items_per_s",
     ("lint_cold", "diffgen"), ("wllsms",)),
    ("core.exprs.self_s", "s", "lower", "request_p50_ms,items_per_s",
     ("lint_cold", "diffgen"), ("wllsms",)),
    ("core.analysis.lint.structure_s", "s", "lower", "items_per_s",
     ("lint_cold",), ("wllsms",)),
    ("core.analysis.lint.verify_s", "s", "lower", "items_per_s",
     ("lint_cold",), ("wllsms",)),
    ("core.analysis.lint.advise_s", "s", "lower", "items_per_s",
     ("lint_cold",), ("wllsms",)),
    ("core.analysis.verify.self_s", "s", "lower", "items_per_s",
     ("diffgen",), ("wllsms",)),
    ("core.analysis.races.self_s", "s", "lower", "items_per_s",
     ("diffgen",), ("wllsms",)),
    ("core.analysis.hb.unroll_hits", "count", "higher", "items_per_s",
     ("diffgen",), ("wllsms",)),
    ("core.analysis.hb.unroll_misses", "count", "lower", "items_per_s",
     ("diffgen",), ("wllsms",)),
    ("core.analysis.hb.unroll_hit_rate", "ratio", "higher", "items_per_s",
     ("diffgen",), ("wllsms",)),
    ("core.analysis.advisor.calls", "count", "lower", "request_p90_ms",
     ("lint_cold",), ("lint_incremental", "diffgen")),
    ("core.analysis.advisor.self_s", "s", "lower", "request_p90_ms",
     ("lint_cold",), ("lint_incremental", "diffgen")),
    ("core.analysis.progsim.calls", "count", "lower",
     "request_p90_ms,items_per_s", ("lint_cold", "diffgen"),
     ("lint_incremental",)),
    ("core.analysis.progsim.calls_per_file", "ratio", "lower",
     "request_p90_ms,items_per_s", ("lint_cold", "diffgen"),
     ("lint_incremental",)),
    ("core.analysis.progsim.self_s", "s", "lower",
     "request_p90_ms,items_per_s", ("lint_cold", "diffgen"),
     ("lint_incremental",)),
    ("sim.engine.runs", "count", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("sim.engine.threads_spawned", "count", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("sim.engine.switches", "count", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("sim.engine.direct_handoffs", "count", "higher", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("sim.engine.self_s", "s", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("mpi.calls", "count", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("mpi.self_cpu_s", "s", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("shmem.calls", "count", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("shmem.self_cpu_s", "s", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("core.directives.calls", "count", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("core.directives.self_cpu_s", "s", "lower", "items_per_s",
     ("wllsms",), ("lint_incremental",)),
    ("core.directives.overhead_ratio.MPI_2SIDE", "ratio", "lower",
     "items_per_s", ("wllsms",), ("lint_incremental",)),
    ("core.directives.overhead_ratio.MPI_1SIDE", "ratio", "lower",
     "items_per_s", ("wllsms",), ("lint_incremental",)),
    ("core.directives.overhead_ratio.SHMEM", "ratio", "lower",
     "items_per_s", ("wllsms",), ("lint_incremental",)),
    ("faults.fuzz.calls", "count", "lower", "items_per_s",
     ("diffgen",), ("lint_cold", "wllsms")),
    ("faults.fuzz.self_s", "s", "lower", "items_per_s",
     ("diffgen",), ("lint_cold", "wllsms")),
    ("gen.oracle.checks", "count", "lower", "items_per_s",
     ("diffgen",), ("lint_cold", "lint_incremental", "wllsms")),
    ("gen.oracle.self_s", "s", "lower", "items_per_s",
     ("diffgen",), ("lint_cold", "lint_incremental", "wllsms")),
    ("gen.generator.self_s", "s", "lower", "setup_s", _ALL, ()),
    ("lintserve.scheduler.units_total", "count", "lower", "items_per_s",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.scheduler.units_executed", "count", "lower",
     "items_per_s", ("lint_incremental",), ("lint_cold",)),
    ("lintserve.scheduler.pool_s", "s", "lower", "items_per_s",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.scheduler.executed_unit_s", "s", "lower", "items_per_s",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.cache.hits", "count", "higher", "request_p50_ms",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.cache.misses", "count", "lower", "request_p50_ms",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.cache.stores", "count", "lower", "request_p50_ms",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.cache.hit_rate", "ratio", "higher", "request_p50_ms",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.cache.key_s", "s", "lower", "request_p50_ms",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.cache.get_s", "s", "lower", "request_p50_ms",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.cache.put_s", "s", "lower", "request_p50_ms",
     ("lint_incremental",), ("lint_cold",)),
    ("lintserve.merge.self_s", "s", "lower", "items_per_s",
     ("lint_incremental",), ("wllsms",)),
    ("render.self_s", "s", "lower", "items_per_s",
     ("lint_incremental",), ("wllsms",)),
    ("trace.overhead_ratio", "ratio", "lower", "items_per_s", _ALL, ()),
]

#: Per-layer metrics that are exact counts: they must repeat exactly
#: across two traced runs of one workload and seed.
EXACT_COUNTS: tuple[str, ...] = tuple(
    name for name, unit, *_ in PER_LAYER
    if unit == "count" or name.endswith(("parses_per_file",
                                         "calls_per_file")))


def tag(name: str) -> str:
    """The prediction recorded for a per-layer metric, as one line."""
    for entry in PER_LAYER:
        if entry[0] == name:
            _, _, _, moves, on, unchanged = entry
            line = f"moves {moves} on {','.join(on)}"
            if unchanged:
                line += f"; unchanged on {','.join(unchanged)}"
            return line
    raise KeyError(name)
