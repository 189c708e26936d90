"""The four seeded workloads, their output checks and the run loop.

Every workload draws its inputs from ``--seed`` alone and feeds the
program nothing but the generated inputs. Why each one exists:

* ``lint_cold`` — the editor / pre-commit use of ``repro-lint
  --advise``: one generated file per request, linted with the advisor,
  no cache and no pool, then rendered to JSON and SARIF. The advisor,
  ``progsim`` and the engine do most of the work; cache and pool are
  bypassed.
* ``lint_incremental`` — CI's ``--jobs 2 --cache-dir`` re-lint of a
  tree after a small edit: each round replaces a seeded 2% of the files
  with newly generated programs and re-lints the whole tree. Mostly
  cache reads beside a few writes, pool spin-up and merge: an analysis
  speed-up barely shows here, while a cache or pool change shows
  nowhere else.
* ``diffgen`` — the differential oracle CI sweeps 1,000 seeds of; the
  only workload that drives ``progsim`` on all three targets with
  payload capture, the sanitizer and jittered ``faults.fuzz``
  schedules.
* ``wllsms`` — the paper's application at 129 ranks, hand-written MPI
  against the directive on each target: the modeled machine (engine
  dispatch, MPI/SHMEM libraries, directive runtime) with no parsing or
  static analysis. ``original`` is the raw-call baseline of
  ``core.directives.overhead_ratio``.

Lint inputs come from fixed pools of generator seeds whose expected
per-file output digests are recorded in ``expected.json``
(``record.py`` rewrites it); a run seed picks an order over the pool,
so every file a run lints has a recorded answer.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.apps.wllsms.app import AppConfig, run_app
from repro.core.analysis import hb
from repro.core.analysis.codes import make
from repro.core.analysis.lint import LintReport, lint_program
from repro.core.pragma import parse_program
from repro.core.pragma.__main__ import render_reports
from repro.errors import ReproError
from repro.gen.generator import generate_many
from repro.gen.oracle import check_program
from repro.lintserve.cache import ResultCache
from repro.lintserve.scheduler import lint_sources

from perfbench.hostspeed import SpeedSampler
from perfbench.metrics import PER_LAYER
from perfbench.tracer import Tracer

__all__ = ["FULL", "TINY", "Config", "Record", "Result", "WORKLOADS",
           "load_expected", "lint_digest", "run"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Generator seeds of the lint_cold corpus (programs keep the world
#: size they were generated for).
LINT_COLD_POOL = range(0, 2000)
#: Generator seeds of the lint_incremental tree and its replacements,
#: all generated for and linted at world size LINT_TREE_NPROCS.
LINT_TREE_POOL = range(100_000, 103_000)
LINT_TREE_NPROCS = 4
#: The seeds CI's diffgen sweep covers (0 disagreements there).
DIFFGEN_POOL = range(0, 1000)
#: Share of the tree replaced per lint_incremental round.
REPLACE_SHARE = 0.02
#: Pool size of the lint_incremental re-lint (the host has 2 cores).
JOBS = 2
#: Files re-linted by the sequential reference after a lint_cold run.
COLD_REFERENCE_SAMPLE = 16
#: (variant, target) of the four wllsms requests of one cycle.
WL_VARIANTS = (
    ("original", "TARGET_COMM_MPI_2SIDE"),
    ("directive", "TARGET_COMM_MPI_2SIDE"),
    ("directive", "TARGET_COMM_MPI_1SIDE"),
    ("directive", "TARGET_COMM_SHMEM"),
)


@dataclass(frozen=True)
class Config:
    """Sizes of one benchmark scale (``FULL`` for measured and traced runs)."""

    name: str
    #: Programs generated per corpus extension.
    chunk: int
    #: Files in the lint_incremental tree.
    tree_files: int
    #: (n_lsms, group_size, wl_steps) of the wllsms runs.
    wl_shape: tuple[int, int, int]
    #: Set-ups per measured run; setup_s reports their median.
    setup_repeats: int
    #: Fixed request count of each pass of a traced run.
    trace_requests: dict[str, int]


FULL = Config("full", chunk=100, tree_files=200, wl_shape=(4, 32, 8),
              setup_repeats=3,
              trace_requests={"lint_cold": 40, "lint_incremental": 10,
                              "diffgen": 30, "wllsms": 4})
TINY = Config("tiny", chunk=3, tree_files=20, wl_shape=(1, 4, 2),
              setup_repeats=2,
              trace_requests={"lint_cold": 3, "lint_incremental": 2,
                              "diffgen": 2, "wllsms": 4})


@dataclass
class Record:
    """One request: its latency, what it produced, and any failure."""

    index: int
    latency: float
    output: Any = None
    error: str | None = None
    #: ``perf_counter`` when the request started.
    start: float = 0.0


def load_expected() -> dict:
    """The recorded digests and makespans (``expected.json``)."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def lint_digest(json_text: str, sarif_text: str) -> str:
    """Digest of one rendered lint output (JSON then SARIF)."""
    h = hashlib.sha256(json_text.encode())
    h.update(sarif_text.encode())
    return h.hexdigest()[:16]


def render_digest(reports: list[LintReport]) -> str:
    """:func:`lint_digest` of ``reports`` rendered as the CLI does."""
    return lint_digest(render_reports(reports, "json"),
                       render_reports(reports, "sarif"))


def sequential_lint(sources: list[tuple[str, str]], nprocs: int,
                    advise: bool) -> list[LintReport]:
    """Reference: the sequential, uncached ``repro-lint`` file loop."""
    reports = []
    for path, source in sources:
        try:
            program = parse_program(source)
        except ReproError as exc:
            report = LintReport(path=path)
            report.diagnostics.append(
                make("CI000", getattr(exc, "line", None) or 0, str(exc)))
            reports.append(report)
            continue
        reports.append(lint_program(program, nprocs=nprocs, path=path,
                                    advise=advise))
    return reports


def program_path(seed: int) -> str:
    """Display path of a generated program (never opened)."""
    return f"gen/{seed}.c"


def pool_order(pool: range, seed: int) -> list[int]:
    """The run seed's order over a pool of generator seeds."""
    order = list(pool)
    random.Random(seed).shuffle(order)
    return order


def stratified_order(strata: list[list[int]], seed: int) -> list[int]:
    """The run seed's order over a pool split into cost strata.

    ``strata`` (recorded by ``record.py``) groups the pool's generator
    seeds by their measured cost. Each round takes one program from
    every stratum, so any prefix of the order samples the pool's whole
    cost range evenly: two seeds then differ in the programs they feed,
    not in how heavy their mix is, which keeps the spread of the
    measured latencies down to the host's own.
    """
    rng = random.Random(seed)
    shuffled = [rng.sample(stratum, len(stratum)) for stratum in strata]
    order = []
    for position in range(max(len(s) for s in shuffled)):
        for stratum in rng.sample(shuffled, len(shuffled)):
            if position < len(stratum):
                order.append(stratum[position])
    return order


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up, one request, and the output checks of a workload.

    ``prepare`` and ``finish`` run outside the timed request: input
    generation beyond the set-up corpus, and digesting the output.
    """

    #: Requests per round. A run sends whole rounds, and
    #: ``items_per_s`` is the median of the rounds' throughputs.
    round_size = 1
    #: Processes the workload computes in (its pool size).
    jobs = 1

    def __init__(self, seed: int, config: Config, expected: dict,
                 work_dir: Path) -> None:
        self.seed = seed
        self.config = config
        self.expected = expected
        self.work_dir = work_dir

    def setup(self) -> None:
        """Build the inputs a run starts from."""

    def prepare(self, index: int) -> None:
        """Untimed preparation of request ``index``."""

    def request(self, index: int) -> Any:
        """The timed request; its return value goes to :meth:`finish`."""
        raise NotImplementedError

    def finish(self, index: int, raw: Any) -> Any:
        """Untimed reduction of a request's output to what checks need."""
        return raw

    def items(self, output: Any) -> int:
        """Units of work (files, seeds, rank-steps) one request did."""
        return 1

    def files(self, records: list[Record]) -> int:
        """Files (programs) the requests analyzed."""
        return len(records)

    def check(self, records: list[Record]) -> None:
        """Mark each request whose output is wrong (sets ``error``)."""

    def teardown(self) -> None:
        """Release what :meth:`setup` created."""


class _Corpus:
    """Generated programs in a run seed's pool order, grown on demand."""

    def __init__(self, order: list[int], chunk: int,
                 nprocs: int | None = None) -> None:
        self.order = order
        self.chunk = chunk
        self.nprocs = nprocs
        self.programs: list = []

    def ensure(self, count: int) -> None:
        while len(self.programs) < count:
            start = len(self.programs)
            seeds = [self.order[i % len(self.order)]
                     for i in range(start, start + self.chunk)]
            self.programs.extend(
                generate_many(seeds, mode="mix", nprocs=self.nprocs))

    def __getitem__(self, index: int):
        self.ensure(index + 1)
        return self.programs[index]


@dataclass
class LintOutput:
    """What a lint request leaves for the checks and the ledger."""

    #: (program, its report, digest of its rendered output) per file
    #: the request linted for the first time.
    new: list[tuple[Any, LintReport, str]]
    stats: Any
    #: (hits, misses, stores) of the request's result cache.
    cache: tuple[int, int, int] = (0, 0, 0)


def _check_digests(records: list[Record], recorded: list[str],
                   pool: range) -> None:
    for rec in records:
        if rec.error is not None:
            continue
        for gp, _, digest in rec.output.new:
            want = recorded[gp.seed - pool.start]
            if digest != want:
                rec.error = (f"seed {gp.seed}: output digest {digest} "
                             f"!= recorded {want}")
                break


class LintCold(Workload):
    def setup(self) -> None:
        strata = self.expected["lint_cold"]["strata"]
        self.round_size = len(strata)
        self.corpus = _Corpus(stratified_order(strata, self.seed),
                              self.config.chunk)
        self.corpus.ensure(self.config.chunk)

    def prepare(self, index: int) -> None:
        self.corpus.ensure(index + 1)

    def request(self, index: int) -> Any:
        gp = self.corpus[index]
        reports, stats = lint_sources(
            [(program_path(gp.seed), gp.source)], nprocs=gp.nprocs,
            advise=True, jobs=1)
        return gp, reports, stats, (render_reports(reports, "json"),
                                    render_reports(reports, "sarif"))

    def finish(self, index: int, raw: Any) -> Any:
        gp, reports, stats, rendered = raw
        return LintOutput([(gp, reports[0], lint_digest(*rendered))],
                          stats)

    def check(self, records: list[Record]) -> None:
        _check_digests(records, self.expected["lint_cold"]["digests"],
                       LINT_COLD_POOL)
        # The merged output of a sample must match the sequential,
        # uncached CLI loop over the same files.
        done = [r for r in records if r.error is None]
        sample = random.Random(self.seed).sample(
            done, min(COLD_REFERENCE_SAMPLE, len(done)))
        served = [rec.output.new[0][1] for rec in sample]
        reference = [
            sequential_lint([(program_path(gp.seed), gp.source)],
                            gp.nprocs, advise=True)[0]
            for gp in (rec.output.new[0][0] for rec in sample)]
        for fmt in ("json", "sarif"):
            if render_reports(served, fmt) != render_reports(reference,
                                                            fmt):
                for rec in sample:
                    rec.error = rec.error or (
                        f"merged {fmt} differs from the sequential lint")


class LintIncremental(Workload):
    jobs = JOBS

    def setup(self) -> None:
        self.teardown()
        self.cache_dir = self.work_dir / "cache"
        size = self.config.tree_files
        self.corpus = _Corpus(pool_order(LINT_TREE_POOL, self.seed),
                              self.config.chunk, nprocs=LINT_TREE_NPROCS)
        self.corpus.ensure(size)
        self.tree = [self.corpus[i] for i in range(size)]
        self.slots = random.Random(self.seed ^ 0x1A7)
        self.fresh = size
        self.last: tuple | None = None
        self._lint(ResultCache(self.cache_dir))

    def _lint(self, cache: ResultCache) -> tuple:
        sources = [(program_path(gp.seed), gp.source) for gp in self.tree]
        return lint_sources(sources, nprocs=LINT_TREE_NPROCS, jobs=JOBS,
                            cache=cache)

    def prepare(self, index: int) -> None:
        size = len(self.tree)
        n = max(1, round(size * REPLACE_SHARE))
        self.corpus.ensure(self.fresh + n)
        self.replaced = []
        for slot in self.slots.sample(range(size), n):
            self.tree[slot] = self.corpus[self.fresh]
            self.replaced.append(slot)
            self.fresh += 1

    def request(self, index: int) -> Any:
        cache = ResultCache(self.cache_dir)
        reports, stats = self._lint(cache)
        return reports, stats, cache, (render_reports(reports, "json"),
                                       render_reports(reports, "sarif"))

    def finish(self, index: int, raw: Any) -> Any:
        reports, stats, cache, rendered = raw
        self.last = (index, list(self.tree), reports, rendered)
        new = [(self.tree[slot], reports[slot],
                render_digest([reports[slot]])) for slot in self.replaced]
        return LintOutput(new, stats,
                          (cache.hits, cache.misses, cache.stores))

    def items(self, output: Any) -> int:
        return output.stats.files

    def files(self, records: list[Record]) -> int:
        return sum(r.output.stats.files for r in records
                   if r.error is None)

    def check(self, records: list[Record]) -> None:
        recorded = self.expected["lint_incremental"]["digests"]
        _check_digests(records, recorded, LINT_TREE_POOL)
        if self.last is None:
            return
        # The last round's merged output must equal the sequential,
        # uncached lint of the final tree, whose every file must match
        # its recorded digest.
        index, tree, reports, (json_text, sarif_text) = self.last
        final = records[index]
        final.output.new = [(gp, report, render_digest([report]))
                            for gp, report in zip(tree, reports)]
        _check_digests([final], recorded, LINT_TREE_POOL)
        reference = sequential_lint(
            [(program_path(gp.seed), gp.source) for gp in tree],
            LINT_TREE_NPROCS, advise=False)
        if (render_reports(reference, "json") != json_text
                or render_reports(reference, "sarif") != sarif_text):
            final.error = final.error or (
                "merged output differs from the sequential lint")

    def teardown(self) -> None:
        shutil.rmtree(self.work_dir / "cache", ignore_errors=True)


class Diffgen(Workload):
    def setup(self) -> None:
        strata = self.expected["diffgen"]["strata"]
        self.round_size = len(strata)
        self.corpus = _Corpus(stratified_order(strata, self.seed),
                              self.config.chunk)
        self.corpus.ensure(self.config.chunk)

    def prepare(self, index: int) -> None:
        self.corpus.ensure(index + 1)

    def request(self, index: int) -> Any:
        return check_program(self.corpus[index])

    def check(self, records: list[Record]) -> None:
        for rec in records:
            if rec.error is None and not rec.output.ok:
                rec.error = "; ".join(
                    str(d) for d in rec.output.disagreements)


class WlLsms(Workload):
    round_size = len(WL_VARIANTS)

    def setup(self) -> None:
        n_lsms, group_size, steps = self.config.wl_shape
        self.configs = [
            AppConfig(n_lsms=n_lsms, group_size=group_size,
                      wl_steps=steps, variant=variant, target=target,
                      seed=self.seed)
            for variant, target in WL_VARIANTS]

    def request(self, index: int) -> Any:
        result = run_app(self.configs[index % len(self.configs)])
        return result.makespan, list(result.group_energies)

    def items(self, output: Any) -> int:
        cfg = self.configs[0]
        return cfg.nprocs * cfg.wl_steps

    def files(self, records: list[Record]) -> int:
        return 0

    def check(self, records: list[Record]) -> None:
        recorded = self.expected["wllsms"][self.config.name]
        for rec in records:
            if rec.error is not None:
                continue
            key = "/".join(WL_VARIANTS[rec.index % len(WL_VARIANTS)])
            makespan, energies = rec.output
            if makespan.hex() != recorded[key]:
                rec.error = (f"{key}: makespan {makespan.hex()} != "
                             f"recorded {recorded[key]}")
                continue
            base = records[rec.index - rec.index % len(WL_VARIANTS)]
            if base.error is not None or base.output[1] != energies:
                rec.error = f"{key}: group energies differ from original"


WORKLOADS: dict[str, type[Workload]] = {
    "lint_cold": LintCold,
    "lint_incremental": LintIncremental,
    "diffgen": Diffgen,
    "wllsms": WlLsms,
}


# ---------------------------------------------------------------------------
# Running


@dataclass
class Result:
    """What one run measured, before it is printed."""

    attempted: int
    failed: int
    #: name -> (value, unit), exactly the metrics of the run's mode.
    metrics: dict[str, tuple[float, str]]
    #: Facts about the run for its first printed line.
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None


def _send(wl: Workload, index: int, records: list[Record],
           tracer: Tracer | None = None) -> float:
    """Run request ``index``; append its record; return its latency."""
    wl.prepare(index)
    if tracer is not None:
        tracer.request = index
    start = time.perf_counter()
    try:
        raw = wl.request(index)
        error = None
    except Exception as exc:  # a failed request counts, it never aborts
        raw, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.request = None
    records.append(Record(index, latency,
                          None if error else wl.finish(index, raw), error,
                          start))
    return latency


def _window(wl: Workload, seconds: float,
            sampler: SpeedSampler) -> tuple[list[Record], float]:
    """Closed loop, one client: requests until ``seconds`` are busy at
    the reference host speed, so a run does the same work however fast
    the host is (the program's memory grows with the work it did)."""
    records: list[Record] = []
    busy = 0.0
    while busy < seconds or len(records) % wl.round_size:
        latency = _send(wl, len(records), records)
        start = records[-1].start
        busy += sampler.normalize(start, start + latency)
    return records, busy


def _fixed(wl: Workload, count: int,
           tracer: Tracer | None = None) -> tuple[list[Record], float]:
    records: list[Record] = []
    busy = sum(_send(wl, i, records, tracer) for i in range(count))
    return records, busy


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _percentile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) == 1:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100)[q - 1] * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        work_dir: Path, config: Config = FULL,
        expected: dict | None = None,
        import_span: tuple[float, float] | None = None,
        sampler: SpeedSampler | None = None) -> Result:
    """Run one workload in measured (``trace=False``) or traced mode.

    ``import_span`` is the ``perf_counter`` span of the caller's imports,
    which ``setup_s`` includes; ``sampler`` is a running
    :class:`SpeedSampler` that timed them (a measured run without one
    starts its own). A measured run stops the sampler."""
    expected = expected if expected is not None else load_expected()
    wl = WORKLOADS[workload](seed, config, expected, work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return _traced(wl, workload, config)
        return _measured(wl, seconds, config, import_span,
                         sampler or SpeedSampler())
    finally:
        wl.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)


def _failures(records: list[Record]) -> list[str]:
    return [f"request {r.index}: {r.error}" for r in records if r.error]


def _measured(wl: Workload, seconds: float, config: Config,
              import_span: tuple[float, float] | None,
              sampler: SpeedSampler) -> Result:
    """Time set-up and the request window, and report every time at the
    reference host speed (:mod:`perfbench.hostspeed`)."""
    if not sampler.running:
        sampler.start()
    try:
        setups = []
        for _ in range(config.setup_repeats):
            start = time.perf_counter()
            wl.setup()
            setups.append((start, time.perf_counter()))
        hb.GRAPH_CACHE.clear()
        records, busy = _window(wl, seconds, sampler)
    finally:
        sampler.stop()
    wl.check(records)
    raw = [r.latency for r in records]
    latencies = [sampler.normalize(r.start, r.start + r.latency)
                 for r in records]
    errors = _failures(records)
    import_s = sampler.normalize(*import_span) if import_span else 0.0
    setup_s = [sampler.normalize(*span) for span in setups]
    metrics = {
        "setup_s": (import_s + statistics.median(setup_s), "s"),
        "items_per_s": (_throughput(wl, records, latencies), "items/s"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "request_p90_ms": (_percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return Result(len(records), len(errors), metrics, errors=errors,
                  notes=[
                      f"requests={len(records)} busy_s={busy:.3f} "
                      f"setups_s={[round(b - a, 3) for a, b in setups]}"
                      f" import_s={_span_s(import_span):.3f}",
                      f"unscaled: items_per_s="
                      f"{_throughput(wl, records, raw):.6g} "
                      f"request_p50_ms={statistics.median(raw) * 1e3:.6g} "
                      f"request_p90_ms={_percentile_ms(raw, 90):.6g}",
                      f"host speed: kernel_ms median="
                      f"{sampler.median_kernel_s() * 1e3:.4g} "
                      f"samples={len(sampler.seconds)}"])


def _span_s(span: tuple[float, float] | None) -> float:
    return span[1] - span[0] if span else 0.0


def _throughput(wl: Workload, records: list[Record],
                latencies: list[float]) -> float:
    """Median over whole rounds of items done per second of latency."""
    size = wl.round_size
    return statistics.median(
        sum(wl.items(r.output) for r in records[i:i + size]
            if r.error is None) / sum(latencies[i:i + size])
        for i in range(0, len(records), size))


def _traced(wl: Workload, workload: str, config: Config) -> Result:
    """An untraced then a traced pass over the same fixed requests."""
    count = config.trace_requests[workload]
    passes = []
    tracer = Tracer()
    for traced in (False, True):
        hb.GRAPH_CACHE.clear()
        if traced:
            tracer.install()
        try:
            wl.setup()
            records, busy = _fixed(wl, count, tracer if traced else None)
        finally:
            tracer.uninstall()
        wl.check(records)
        passes.append((records, busy))
    (plain, plain_busy), (records, busy) = passes
    values = _layer_metrics(tracer, wl, records, plain)
    values["trace.overhead_ratio"] = busy / plain_busy - 1.0
    metrics = {name: (float(values[name]), unit)
               for name, unit, *_ in PER_LAYER}
    errors = _failures(plain) + _failures(records)
    return Result(len(plain) + len(records), len(errors), metrics,
                  errors=errors, trace=tracer.chrome(),
                  notes=[f"requests={count} untraced_s={plain_busy:.3f} "
                         f"traced_s={busy:.3f}"])


def _layer_metrics(tracer: Tracer, wl: Workload, records: list[Record],
                   plain: list[Record]) -> dict[str, float]:
    own = tracer.self_times()
    calls = tracer.calls()
    inclusive = tracer.inclusive_times()
    files = wl.files(records)
    done = [r.output for r in records if r.error is None]
    lint_out = [out for out in done if isinstance(out, LintOutput)]
    lint_stats = [out.stats for out in lint_out]
    # Units that ran in pool workers are invisible to the tracer; their
    # own wall times come back in the service stats.
    pool_units: dict[str, float] = {}
    for stats in lint_stats:
        if stats.jobs > 1 and stats.units_executed > 1:
            for kind, wall in stats.unit_walls:
                pool_units[kind] = pool_units.get(kind, 0.0) + wall
    hits, misses, stores = (sum(column) for column in
                            zip((0, 0, 0), *(o.cache for o in lint_out)))
    unrolls = hb.GRAPH_CACHE.hits + hb.GRAPH_CACHE.misses
    engine_runs = tracer.engine_runs

    def per_file(value: float) -> float:
        return value / files if files else 0.0

    values: dict[str, float] = {
        "core.pragma.calls": calls.get("core.pragma", 0),
        "core.pragma.parses_per_file": per_file(
            calls.get("core.pragma", 0)),
        "core.pragma.self_s": own.get("core.pragma", 0.0),
        "core.exprs.calls": calls.get("core.exprs", 0),
        "core.exprs.self_s": own.get("core.exprs", 0.0),
        "core.analysis.lint.structure_s":
            inclusive.get("core.analysis.lint.structure", 0.0)
            + pool_units.get("structure", 0.0),
        "core.analysis.lint.verify_s":
            inclusive.get("core.analysis.lint.verify", 0.0)
            + pool_units.get("verify", 0.0),
        "core.analysis.lint.advise_s":
            inclusive.get("core.analysis.lint.advise", 0.0)
            + pool_units.get("advise", 0.0),
        "core.analysis.verify.self_s": own.get("core.analysis.verify", 0.0),
        "core.analysis.races.self_s": own.get("core.analysis.races", 0.0),
        "core.analysis.hb.unroll_hits": hb.GRAPH_CACHE.hits,
        "core.analysis.hb.unroll_misses": hb.GRAPH_CACHE.misses,
        "core.analysis.hb.unroll_hit_rate":
            hb.GRAPH_CACHE.hits / unrolls if unrolls else 0.0,
        "core.analysis.advisor.calls": calls.get("core.analysis.advisor", 0),
        "core.analysis.advisor.self_s":
            own.get("core.analysis.advisor", 0.0),
        "core.analysis.progsim.calls": calls.get("core.analysis.progsim", 0),
        "core.analysis.progsim.calls_per_file": per_file(
            calls.get("core.analysis.progsim", 0)),
        "core.analysis.progsim.self_s":
            own.get("core.analysis.progsim", 0.0),
        "sim.engine.runs": len(engine_runs),
        "sim.engine.threads_spawned": sum(r[0] for r in engine_runs),
        "sim.engine.switches": sum(r[1] for r in engine_runs),
        "sim.engine.direct_handoffs": sum(r[2] for r in engine_runs),
        "sim.engine.self_s": own.get("sim.engine", 0.0),
        "mpi.calls": calls.get("mpi", 0),
        "mpi.self_cpu_s": own.get("mpi", 0.0),
        "shmem.calls": calls.get("shmem", 0),
        "shmem.self_cpu_s": own.get("shmem", 0.0),
        "core.directives.calls": tracer.name_calls("comm_p2p")
        + tracer.name_calls("comm_parameters"),
        "core.directives.self_cpu_s": own.get("core.directives", 0.0),
        "faults.fuzz.calls": calls.get("faults.fuzz", 0),
        "faults.fuzz.self_s": own.get("faults.fuzz", 0.0),
        "gen.oracle.checks": sum(out.checks for out in done)
        if isinstance(wl, Diffgen) else 0,
        "gen.oracle.self_s": own.get("gen.oracle", 0.0),
        "gen.generator.self_s": own.get("gen.generator", 0.0),
        "lintserve.scheduler.units_total":
            sum(s.units_total for s in lint_stats),
        "lintserve.scheduler.units_executed":
            sum(s.units_executed for s in lint_stats),
        "lintserve.scheduler.pool_s":
            tracer.name_time("pool_map"),
        "lintserve.scheduler.executed_unit_s":
            sum(s.executed_wall_s for s in lint_stats),
        "lintserve.cache.hits": hits,
        "lintserve.cache.misses": misses,
        "lintserve.cache.stores": stores,
        "lintserve.cache.hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "lintserve.cache.key_s": tracer.name_time("ResultCache.key"),
        "lintserve.cache.get_s": tracer.name_time("ResultCache.get"),
        "lintserve.cache.put_s": tracer.name_time("ResultCache.put"),
        "lintserve.merge.self_s": own.get("lintserve.merge", 0.0),
        "render.self_s": own.get("render", 0.0),
    }
    for _, target in WL_VARIANTS[1:]:
        key = "core.directives.overhead_ratio." + target.split("COMM_")[1]
        values[key] = _overhead_ratio(plain, target) \
            if isinstance(wl, WlLsms) else 0.0
    return values


def _overhead_ratio(records: list[Record], target: str) -> float:
    """Directive-variant wall over ``original`` wall, per cycle, median."""
    slot = WL_VARIANTS.index(("directive", target))
    cycles = len(records) // len(WL_VARIANTS)
    ratios = [records[c * 4 + slot].latency / records[c * 4].latency
              for c in range(cycles)]
    return statistics.median(ratios) if ratios else 0.0
