"""Communication-matrix analysis over profiled runs."""

import numpy as np
import pytest

from repro import mpi, shmem
from repro.netmodel import zero_model
from repro.profiling import aggregate
from repro.sim import Engine, comm_matrix


def traced_run(nprocs, fn):
    model = zero_model()
    eng = Engine(nprocs, profile=True)

    def main(env):
        comm = mpi.init(env, model)
        return fn(env, comm)

    eng.run(main)
    return comm_matrix(eng.profile, nprocs), eng


class TestCommMatrix:
    def test_counts_and_volume(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(4), dest=1)           # 32 bytes
                comm.Send(np.zeros(2), dest=2, tag=1)    # 16 bytes
            elif env.rank == 1:
                comm.Recv(np.zeros(4), source=0)
            elif env.rank == 2:
                comm.Recv(np.zeros(2), source=0, tag=1)

        m, _ = traced_run(3, prog)
        assert m.messages[0, 1] == 1
        assert m.volume[0, 1] == 32
        assert m.volume[0, 2] == 16
        assert m.total_messages == 2
        assert m.total_bytes == 48

    def test_hotspots_ordering(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(100), dest=1)
                comm.Send(np.zeros(1), dest=2, tag=1)
            elif env.rank == 1:
                comm.Recv(np.zeros(100), source=0)
            elif env.rank == 2:
                comm.Recv(np.zeros(1), source=0, tag=1)

        m, _ = traced_run(3, prog)
        hs = m.hotspots(k=2)
        assert hs[0] == (0, 1, 800)
        assert hs[1] == (0, 2, 8)

    def test_degree(self):
        def prog(env, comm):
            if env.rank == 0:
                for dst in (1, 2):
                    comm.Send(np.zeros(1), dest=dst)
            else:
                comm.Recv(np.zeros(1), source=0)

        m, _ = traced_run(3, prog)
        assert m.degree(0) == (2, 0)
        assert m.degree(1) == (0, 1)

    def test_small_message_fraction(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(3), dest=1)          # 24B (small)
                comm.Send(np.zeros(1000), dest=1, tag=1)  # 8000B
            else:
                comm.Recv(np.zeros(3), source=0, tag=0)
                comm.Recv(np.zeros(1000), source=0, tag=1)

        m, _ = traced_run(2, prog)
        assert m.small_message_fraction(256) == pytest.approx(0.5)

    def test_shmem_puts_counted(self):
        model = zero_model()
        eng = Engine(2, profile=True)

        def main(env):
            mpi.init(env, model)
            sh = shmem.init(env)
            dst = sh.malloc(4)
            if env.rank == 0:
                sh.put(dst, np.ones(4), pe=1)
            sh.barrier_all()

        eng.run(main)
        m = comm_matrix(eng.profile, 2)
        assert m.messages[0, 1] == 1
        assert m.volume[0, 1] == 32

    def test_rma_puts_counted(self):
        """A plain MPI_Put is a message span, seen by both analyses."""
        def prog(env, comm):
            win = mpi.Win.create(comm, np.zeros(4))
            if env.rank == 0:
                win.Put(np.ones(4), target_rank=1)
            win.Fence()

        m, eng = traced_run(2, prog)
        assert m.messages[0, 1] == 1
        assert m.volume[0, 1] == 32
        assert m.total_messages == 1
        (put,) = eng.profile.of_kind("message")
        assert put.rank == 1
        assert put.attrs["call"] == "MPI_Put"
        ranks = aggregate(eng.profile).ranks
        assert (ranks[0].msgs_sent, ranks[0].bytes_sent) == (1, 32)
        assert (ranks[1].msgs_recv, ranks[1].bytes_recv) == (1, 32)

    def test_subcommunicator_traffic_mapped_to_world_ranks(self):
        """Matrix rows/columns are world ranks, even for group comms."""
        def prog(env, comm):
            sub = comm.Split(color=env.rank % 2)  # evens: 0,2
            if env.rank == 0:
                sub.Send(np.zeros(1), dest=1)  # local 1 == world 2
            elif env.rank == 2:
                sub.Recv(np.zeros(1), source=0)

        m, _ = traced_run(4, prog)
        assert m.messages[0, 2] == 1
        assert m.messages[0, 1] == 0

    def test_render_summary(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.zeros(2), dest=1)
            else:
                comm.Recv(np.zeros(2), source=0)

        m, _ = traced_run(2, prog)
        out = m.render()
        assert "1 messages" in out
        assert "hotspot: 0 -> 1" in out

    def test_empty_trace(self):
        eng = Engine(2, profile=True)
        eng.run(lambda env: None)
        m = comm_matrix(eng.profile, 2)
        assert m.total_messages == 0
        assert m.small_message_fraction() == 0.0
        assert m.hotspots() == []


class TestWaitanyTestall:
    def test_waitany_returns_earliest_completion(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.env.compute(1e-3)
                comm.Send(np.array([1.0]), dest=1, tag=7)
                comm.Send(np.array([2.0]), dest=1, tag=9)
                return None
            later = np.zeros(1)
            early = np.zeros(1)
            r1 = comm.Irecv(later, source=0, tag=9)
            r2 = comm.Irecv(early, source=0, tag=7)
            comm.env.compute(2e-3)  # both transfers complete meanwhile,
            # with distinct arrival-based completion times (tag 7 first)
            idx = comm.Waitany([r1, r2])
            comm.Wait(r1)  # drain the other request
            return (idx, early[0], later[0])

        from repro.netmodel import uniform_model
        model = uniform_model()  # distinct completion times
        eng = Engine(2)

        def main(env):
            comm = mpi.init(env, model)
            return prog(env, comm)

        res = eng.run(main)
        assert res.values[1] == (1, 1.0, 2.0)

    def test_testall_consumes_only_when_all_done(self):
        def prog(env, comm):
            if env.rank == 0:
                comm.Send(np.array([1.0]), dest=1, tag=0)
                comm.env.compute(1.0)
                comm.Send(np.array([2.0]), dest=1, tag=1)
                return None
            a, b = np.zeros(1), np.zeros(1)
            r1 = comm.Irecv(a, source=0, tag=0)
            r2 = comm.Irecv(b, source=0, tag=1)
            polls = 0
            while not comm.Testall([r1, r2]):
                polls += 1
            return (a[0], b[0], polls > 0)

        from repro.netmodel import uniform_model
        model = uniform_model()
        eng = Engine(2, max_time=100.0)

        def main(env):
            comm = mpi.init(env, model)
            return prog(env, comm)

        res = eng.run(main)
        assert res.values[1] == (1.0, 2.0, True)
