"""Scheduler-equivalence regression: heap engine vs the seed engine.

The heap ready queue and direct baton handoff must not change *any*
observable of a run — dispatch order, traces, virtual completion
times — only host wall-clock. These tests pin that equivalence on a
message-heavy synthetic workload and on the paper's WL-LSMS
application (quick mode), so a future scheduler change that perturbs
the deterministic ``(virtual time, rank)`` order fails loudly.
"""

import numpy as np
import pytest

from repro import mpi
from repro.apps.wllsms import AppConfig, run_app
from repro.netmodel import gemini_model
from repro.sim import Engine, SeedEngine

_MODEL = gemini_model()


def _ring_main(env):
    comm = mpi.init(env, _MODEL)
    out = np.full(64, float(env.rank))
    inb = np.zeros(64)
    for _ in range(4):
        rreq = comm.Irecv(inb, source=(env.rank - 1) % env.size)
        sreq = comm.Isend(out, dest=(env.rank + 1) % env.size)
        comm.Waitall([rreq, sreq])
        env.compute(1e-6 * (env.rank + 1))
    return env.now


class TestRingEquivalence:
    @pytest.mark.parametrize("nprocs", [2, 5, 16])
    def test_results_identical(self, nprocs):
        new = Engine(nprocs).run(_ring_main)
        old = SeedEngine(nprocs).run(_ring_main)
        assert new.values == old.values
        assert new.finish_times == old.finish_times
        assert new.makespan == old.makespan

    def test_traces_identical(self):
        """Event-by-event: same kinds, ranks and times in the same
        order — the dispatch sequence itself is unchanged. Every profile
        entry counts, spans and point events (block/unblock) alike."""
        new_eng = Engine(8, profile=True)
        old_eng = SeedEngine(8, profile=True)
        new_eng.run(_ring_main)
        old_eng.run(_ring_main)
        new_ev = [(e.t0, e.rank, e.kind) for e in new_eng.profile]
        old_ev = [(e.t0, e.rank, e.kind) for e in old_eng.profile]
        assert new_ev == old_ev
        kinds = {kind for _, _, kind in new_ev}
        assert {"block", "unblock", "message", "compute"} <= kinds


class TestWlLsmsEquivalence:
    """Acceptance criterion: identical makespan and finish times for
    the WL-LSMS demo (quick mode) before and after the change."""

    QUICK = dict(n_lsms=2, group_size=4, t=32, tc=4, wl_steps=2,
                 model=gemini_model())

    @pytest.mark.parametrize("variant,target", [
        ("original", "TARGET_COMM_MPI_2SIDE"),
        ("waitall", "TARGET_COMM_MPI_2SIDE"),
        ("directive", "TARGET_COMM_MPI_2SIDE"),
        ("directive", "TARGET_COMM_SHMEM"),
    ])
    def test_variant_equivalent(self, variant, target):
        cfg = AppConfig(variant=variant, target=target, **self.QUICK)
        new = run_app(cfg, engine_cls=Engine)
        old = run_app(cfg, engine_cls=SeedEngine)
        assert new.makespan == old.makespan
        assert new.finish_times == old.finish_times
        assert new.group_energies == old.group_energies
        assert np.array_equal(new.wang_landau.ln_g, old.wang_landau.ln_g)
