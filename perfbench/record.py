"""Rewrite ``expected.json``: the recorded answers and the input strata.

Run from the root of a checkout after a change that is *meant* to alter
lint output or the modeled WL-LSMS makespans (about six minutes on two
cores)::

    python3 perfbench/record.py

It records, for every program of the two lint pools, the digest of its
rendered lint output; for both benchmark scales, the modeled makespan of
each WL-LSMS variant; and, for the lint_cold and diffgen pools, the
programs grouped into :data:`STRATA` strata by their measured cost (one
CPU, as the benchmark runs them), which ``workloads.stratified_order``
deals from.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Cost strata per stratified pool.
STRATA = 20


def _strata(costs: dict[int, float]) -> list[list[int]]:
    ranked = sorted(costs, key=costs.__getitem__)
    bounds = [len(ranked) * k // STRATA for k in range(STRATA + 1)]
    return [sorted(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def lint_cold() -> dict:
    """Digest and cost of every lint_cold pool program, one at a time."""
    from repro.gen.generator import generate_many
    from repro.lintserve.scheduler import lint_sources

    from perfbench.workloads import LINT_COLD_POOL, program_path, \
        render_digest

    digests, costs = [], {}
    for gp in generate_many(LINT_COLD_POOL, mode="mix"):
        (reports, _), costs[gp.seed] = _timed(
            lint_sources, [(program_path(gp.seed), gp.source)],
            nprocs=gp.nprocs, advise=True, jobs=1)
        digests.append(render_digest(reports))
    return {"digests": digests, "strata": _strata(costs)}


def lint_incremental() -> dict:
    """Digest of every lint_incremental pool program."""
    from repro.gen.generator import generate_many
    from repro.lintserve.scheduler import lint_sources

    from perfbench.workloads import JOBS, LINT_TREE_NPROCS, \
        LINT_TREE_POOL, program_path, render_digest

    programs = generate_many(LINT_TREE_POOL, mode="mix",
                             nprocs=LINT_TREE_NPROCS)
    reports, _ = lint_sources(
        [(program_path(gp.seed), gp.source) for gp in programs],
        nprocs=LINT_TREE_NPROCS, jobs=JOBS)
    return {"digests": [render_digest([r]) for r in reports]}


def diffgen() -> dict:
    """Cost strata of the diffgen pool (every program must pass)."""
    from repro.gen.generator import generate_many
    from repro.gen.oracle import check_program

    from perfbench.workloads import DIFFGEN_POOL

    costs = {}
    for gp in generate_many(DIFFGEN_POOL, mode="mix"):
        result, costs[gp.seed] = _timed(check_program, gp)
        if not result.ok:
            raise SystemExit(f"diffgen seed {gp.seed} disagrees: "
                             f"{result.disagreements}")
    return {"strata": _strata(costs)}


def wllsms() -> dict:
    """Modeled makespan of every variant at both scales."""
    from repro.apps.wllsms.app import AppConfig, run_app

    from perfbench.workloads import FULL, TINY, WL_VARIANTS

    out = {}
    for config in (FULL, TINY):
        n_lsms, group_size, steps = config.wl_shape
        out[config.name] = {
            f"{variant}/{target}": run_app(AppConfig(
                n_lsms=n_lsms, group_size=group_size, wl_steps=steps,
                variant=variant, target=target)).makespan.hex()
            for variant, target in WL_VARIANTS}
    return out


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import EXPECTED_PATH

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    expected = {"lint_cold": lint_cold(), "diffgen": diffgen(),
                "wllsms": wllsms()}
    os.sched_setaffinity(0, cpus)
    expected["lint_incremental"] = lint_incremental()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
