"""Misuse and error-path behaviour of the runtime layers."""

import numpy as np
import pytest

from repro import mpi
from repro.core import comm_flush, comm_p2p, comm_parameters
from repro.core.directives import CommParameters
from repro.errors import (
    ClauseError,
    DirectiveError,
    SimProcessError,
    SimStateError,
)
from repro.netmodel import zero_model
from repro.sim import Engine


def run(nprocs, fn):
    model = zero_model()
    eng = Engine(nprocs)

    def main(env):
        mpi.init(env, model)
        return fn(env)

    return eng.run(main), eng


def raised(nprocs, fn):
    """(rank, original exception) of the run's failure."""
    with pytest.raises(SimProcessError) as ei:
        run(nprocs, fn)
    return ei.value.rank, ei.value.original


#: Who runs a faulty directive: rank 0 alone as a participant, or rank
#: 0 as a bystander (``sendwhen=receivewhen=False``) beside a sending
#: rank 1. Every clause and buffer check runs on a bystander too, so
#: the same rank fails with the same message either way. Each misuse
#: test runs both ways.
BYSTANDER = (False, True)


def roles(env, bystander):
    """Extra clauses making rank 0 a bystander (when asked)."""
    if not bystander:
        return {}
    return {"sendwhen": env.rank == 1, "receivewhen": False}


class TestEnvMisuse:
    def test_env_used_from_wrong_rank_rejected(self):
        stash = {}

        def prog(env):
            if env.rank == 0:
                stash["env"] = env
                env.compute(1.0)  # park rank 0 so rank 1 runs
            else:
                with pytest.raises(SimStateError):
                    stash["env"].compute(1.0)

        run(2, prog)

    def test_env_outside_run_rejected(self):
        eng = Engine(1)
        captured = {}
        eng.run(lambda env: captured.setdefault("env", env))
        with pytest.raises(SimStateError):
            captured["env"].compute(1.0)


class TestDirectiveMisuse:
    def test_region_exit_out_of_order_rejected(self):
        def prog(env):
            a = CommParameters(env, sender=0, receiver=0)
            b = CommParameters(env, sender=0, receiver=0)
            a.__enter__()
            b.__enter__()
            # Exiting `a` while `b` is innermost violates LIFO.
            with pytest.raises(DirectiveError):
                a.__exit__(None, None, None)
            # Cleanup in the right order.
            b.__exit__(None, None, None)
            a.__exit__(None, None, None)

        run(1, prog)

    def test_error_in_body_skips_sync_and_propagates(self):
        """An exception inside the body must not hang in sync code."""
        def prog(env):
            dst = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1):
                with comm_p2p(env, sbuf=np.ones(1), rbuf=dst):
                    raise RuntimeError("body blew up")

        with pytest.raises(SimProcessError) as ei:
            run(2, prog)
        assert isinstance(ei.value.original, RuntimeError)

    def test_flush_without_carry_is_noop(self):
        def prog(env):
            comm_flush(env)
            return "ok"

        res, _ = run(1, prog)
        assert res.values[0] == "ok"

    def test_non_buffer_sbuf_rejected(self):
        for bystander in BYSTANDER:
            def prog(env):
                with comm_p2p(env, sender=0, receiver=0,
                              sbuf="not a buffer", rbuf=np.zeros(1),
                              **roles(env, bystander)):
                    pass

            rank, err = raised(1 + bystander, prog)
            assert rank == 0
            assert isinstance(err, ClauseError)
            assert str(err) == ("sbuf must be a buffer or a list of buffers; "
                                "got str")

    def test_empty_buffer_list_rejected(self):
        for bystander in BYSTANDER:
            def prog(env):
                with comm_p2p(env, sender=0, receiver=0,
                              sbuf=[], rbuf=np.zeros(1),
                              **roles(env, bystander)):
                    pass

            rank, err = raised(1 + bystander, prog)
            assert rank == 0
            assert isinstance(err, ClauseError)
            assert str(err) == "sbuf must list at least one buffer"

    def test_non_int_receiver_rejected(self):
        def prog(env):
            with comm_p2p(env, sender=0, receiver="east",
                          sbuf=np.zeros(1), rbuf=np.zeros(1)):
                pass

        with pytest.raises(SimProcessError) as ei:
            run(1, prog)
        assert isinstance(ei.value.original, ClauseError)

    def test_mismatched_element_sizes_rejected(self):
        for bystander in BYSTANDER:
            def prog(env):
                with comm_p2p(env, sender=0, receiver=0,
                              sbuf=np.zeros(4, dtype=np.float64),
                              rbuf=np.zeros(4, dtype=np.int32),
                              **roles(env, bystander)):
                    pass

            rank, err = raised(1 + bystander, prog)
            assert rank == 0
            assert isinstance(err, ClauseError)
            assert str(err) == (
                "buffer pair 0: element sizes differ (8 vs 4 bytes); the "
                "generated transfer would reinterpret elements")


class TestMaxCommIter:
    def test_within_bound_ok(self):
        def prog(env):
            out = np.arange(3.0)
            inb = np.zeros(3)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1,
                                 count=1, max_comm_iter=3):
                for p in range(3):
                    with comm_p2p(env, sbuf=out[p:p + 1],
                                  rbuf=inb[p:p + 1]):
                        pass
            return inb.tolist()

        res, _ = run(2, prog)
        assert res.values[1] == [0.0, 1.0, 2.0]

    def test_exceeding_bound_rejected(self):
        for bystander in BYSTANDER:
            # As a bystander, rank 0 sits beside a sender 1 and receiver 2.
            sender, receiver = (1, 2) if bystander else (0, 1)

            def prog(env):
                out = np.arange(4.0)
                inb = np.zeros(4)
                with comm_parameters(env, sender=sender, receiver=receiver,
                                     sendwhen=env.rank == sender,
                                     receivewhen=env.rank == receiver,
                                     count=1, max_comm_iter=2):
                    for p in range(4):
                        with comm_p2p(env, sbuf=out[p:p + 1],
                                      rbuf=inb[p:p + 1]):
                            pass

            rank, err = raised(2 + bystander, prog)
            assert rank == 0
            assert isinstance(err, ClauseError)
            assert str(err) == (
                "comm_p2p executed 3 times in a region declaring "
                "max_comm_iter(2); the generated synchronization "
                "bookkeeping would overflow (Section III-B)")

    def test_bound_resets_per_region_entry(self):
        def prog(env):
            for _ in range(3):  # re-entering resets the counter
                out = np.arange(2.0)
                inb = np.zeros(2)
                with comm_parameters(env, sender=0, receiver=1,
                                     sendwhen=env.rank == 0,
                                     receivewhen=env.rank == 1,
                                     count=1, max_comm_iter=2):
                    for p in range(2):
                        with comm_p2p(env, sbuf=out[p:p + 1],
                                      rbuf=inb[p:p + 1]):
                            pass
            return "ok"

        res, _ = run(2, prog)
        assert res.values == ["ok", "ok"]


class TestRegionStateIsolation:
    def test_states_are_per_rank(self):
        """Rank 0's open region must not leak into rank 1's stack."""
        def prog(env):
            if env.rank == 0:
                region = CommParameters(env, sender=0, receiver=1)
                region.__enter__()
                env.compute(1.0)
                region.__exit__(None, None, None)
                return None
            from repro.core.region import RegionState
            return len(RegionState.of(env).stack)

        res, _ = run(2, prog)
        assert res.values[1] == 0

    def test_fresh_engine_fresh_state(self):
        """Directive state never leaks across engine runs."""
        def prog(env):
            dst = np.zeros(1)
            with comm_parameters(env, sender=0, receiver=1,
                                 sendwhen=env.rank == 0,
                                 receivewhen=env.rank == 1,
                                 place_sync="BEGIN_NEXT_PARAM_REGION"):
                with comm_p2p(env, sbuf=np.ones(1), rbuf=dst):
                    pass
            comm_flush(env)
            return dst[0]

        for _ in range(2):  # second run must behave identically
            res, _ = run(2, prog)
            assert res.values[1] == 1.0
