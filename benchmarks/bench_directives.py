"""Directive-runtime cost bench: what one ``comm_p2p`` instance costs.

Two measurements, written to ``BENCH_directives.json`` and gated by
``check_perf_regression.py``:

* **calls per instance** — the Python ``call`` events into
  ``src/repro/`` that one ``comm_p2p`` instance (construction,
  ``__enter__``, ``__exit__``) makes, counted with ``sys.setprofile``
  on the executing rank's thread. The program is Listing 7 in
  miniature: one ``comm_parameters`` region whose instances each have
  one sender, one receiver and bystanders with
  ``sendwhen=receivewhen=False``. The region runs twice and the
  second pass is measured, so first-use caches are warm. Comprehension
  frames are not counted (CPython 3.12 inlines them), so the count is
  the same on 3.11 and 3.12. It is deterministic: the gate compares it
  exactly, without host-speed noise.
* **WL-LSMS** — the directive variant's modeled makespan per target as
  ``float.hex`` (must not move), plus the host-wall ratio of each
  directive run to the hand-written ``original`` run, for information
  only (host wall is not gated).

Run:  PYTHONPATH=src python benchmarks/bench_directives.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

import repro
from repro import mpi, shmem
from repro.apps.wllsms.app import AppConfig, run_app
from repro.core import Target, comm_p2p, comm_parameters
from repro.core.buffers import array_of
from repro.netmodel import gemini_model
from repro.sim import Engine

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT = os.path.join(_ROOT, "BENCH_directives.json")
_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_MODEL = gemini_model()

#: Code objects CPython 3.12 inlines into their caller (PEP 709).
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: Ranks of the miniature Listing 7: rank 0 sends to every other rank
#: in turn; the measured instance is the one addressed to rank 1.
NPROCS = 4
ROLES = {"sender": 0, "receiver": 1, "non_participant": 2}

#: (n_lsms, group_size, wl_steps): the perfbench ``wllsms`` shape.
WL_SHAPE = (4, 32, 8)
#: WL-LSMS runs per variant; the fastest host wall is kept.
REPEATS = 3


def count_calls(fn: Callable[[], None]) -> int:
    """Python calls into ``repro`` made by ``fn`` on this thread."""
    calls = 0

    def profile(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(_REPRO)
                and code.co_name not in _INLINED):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def instance_calls(target: Target) -> dict[str, int]:
    """Calls of one warm instance per role, for one target."""
    measured: dict[int, int] = {}

    def main(env: Any) -> None:
        mpi.init(env, _MODEL)
        rank = env.rank
        if target is Target.SHMEM:
            evec = shmem.init(env).malloc(3, np.float64)
        else:
            evec = np.zeros(3)
        ev = np.arange(3.0 * NPROCS)
        for step in range(2):
            with comm_parameters(env, sender=0, sendwhen=rank == 0,
                                 receivewhen=rank != 0, count=3,
                                 max_comm_iter=NPROCS,
                                 place_sync="END_PARAM_REGION",
                                 target=target.value):
                for p in range(1, NPROCS):
                    sb = ev[3 * p:3 * p + 3] if rank == 0 else array_of(evec)

                    def instance() -> None:
                        with comm_p2p(env, receiver=p,
                                      sendwhen=rank == 0,
                                      receivewhen=rank == p,
                                      sbuf=sb, rbuf=evec):
                            pass

                    if step == 1 and p == 1:
                        measured[rank] = count_calls(instance)
                    else:
                        instance()

    Engine(NPROCS).run(main)
    return {role: measured[rank] for role, rank in ROLES.items()}


def wllsms() -> dict[str, Any]:
    """Directive makespans per target, and host-wall ratios (info)."""
    n_lsms, group_size, steps = WL_SHAPE
    runs = [("original", Target.MPI_2SIDE)] + [
        ("directive", t) for t in (Target.MPI_2SIDE, Target.MPI_1SIDE,
                                   Target.SHMEM)]
    makespans: dict[str, str] = {}
    walls: dict[str, float] = {}
    for variant, target in runs:
        key = variant if variant == "original" else target.value
        cfg = AppConfig(n_lsms=n_lsms, group_size=group_size,
                        wl_steps=steps, variant=variant,
                        target=target.value)
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = run_app(cfg)
            best = min(best, time.perf_counter() - t0)
        makespans[key] = result.makespan.hex()
        walls[key] = round(best, 4)
    return {
        "shape": list(WL_SHAPE),
        "makespan_hex": makespans,
        "wall_s": walls,
        "overhead_ratio": {key: round(wall / walls["original"], 3)
                           for key, wall in walls.items()
                           if key != "original"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=_OUT)
    args = parser.parse_args(argv)

    calls = {t.value: instance_calls(t) for t in Target}
    report = {
        "benchmark": "directives",
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version()},
        "calls_per_instance": calls,
        "wllsms": wllsms(),
    }
    print(f"{'target':<24}" + "".join(f"{r:>17}" for r in ROLES))
    for target, row in calls.items():
        print(f"{target:<24}" + "".join(f"{row[r]:>17}" for r in ROLES))
    for key, ratio in report["wllsms"]["overhead_ratio"].items():
        print(f"wllsms {key}: {ratio}x original host wall")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
