"""Point events on the profile, and stats plumbing."""

from collections import Counter

from repro.profiling import Profile, spans
from repro.sim import Engine


class TestTrace:
    def test_record_and_query(self):
        prof = Profile()
        prof.point(0, "send", 0.0, dest=1)
        prof.point(1, "recv", 1.0, source=0)
        prof.point(0, "send", 2.0, dest=2)
        assert len(prof) == 3
        assert len(prof.of_kind("send")) == 2
        assert len(prof.by_rank(1)) == 1
        assert Counter(e.kind for e in prof)["send"] == 2
        assert all(e.point and e.t1 == e.t0 for e in prof)

    def test_maxlen_truncates_and_flags(self, monkeypatch):
        monkeypatch.setattr(spans, "POINT_EVENT_CAP", 2)
        prof = Profile()
        for i in range(5):
            prof.point(0, "x", float(i))
        # The cap's worth of real events plus the truncation marker.
        assert len(prof) == 3
        assert prof.truncated
        assert prof.dropped_events == 3
        last = prof.spans[-1]
        assert last.kind == "trace.truncated"
        assert last.attrs["maxlen"] == 2
        assert last.t0 == 2.0

    def test_no_truncation_means_no_drops(self, monkeypatch):
        monkeypatch.setattr(spans, "POINT_EVENT_CAP", 10)
        prof = Profile()
        for i in range(5):
            prof.point(0, "x", float(i))
        assert not prof.truncated
        assert prof.dropped_events == 0
        assert len(prof) == 5

    def test_spans_are_never_dropped(self, monkeypatch):
        monkeypatch.setattr(spans, "POINT_EVENT_CAP", 1)
        prof = Profile()
        for i in range(3):
            prof.point(0, "x", float(i))
            prof.add(0, "compute", float(i), i + 0.5)
        assert len(prof.of_kind("compute")) == 3
        assert prof.dropped_events == 2

    def test_event_str(self):
        prof = Profile()
        prof.point(3, "mpi.recv_post", 1.5e-6, source=1)
        s = str(prof.spans[0])
        assert "rank 3" in s
        assert "mpi.recv_post" in s
        assert "source=1" in s
        assert s.startswith("[0.000001500] ")

    def test_render_limits(self):
        prof = Profile()
        for i in range(10):
            prof.point(0, "k", float(i))
        out = prof.render(limit=3)
        assert "7 more spans" in out

    def test_iteration(self):
        prof = Profile()
        prof.point(0, "a", 0.0)
        assert [e.kind for e in prof] == ["a"]


class TestEngineTraceIntegration:
    def test_engine_without_trace_records_nothing(self):
        eng = Engine(2)
        res = eng.run(lambda env: env.trace("x", label="x"))
        assert eng.profile is None
        assert res.profile is None

    def test_engine_trace_bounded(self, monkeypatch):
        monkeypatch.setattr(spans, "POINT_EVENT_CAP", 3)
        eng = Engine(1, profile=True)

        def prog(env):
            for _ in range(10):
                env.trace("k")
                env.compute(0.1, label="k")

        eng.run(prog)
        points = [s for s in eng.profile if s.point]
        # Cap + the appended truncation warning event.
        assert len(points) == 4
        assert eng.profile.truncated
        assert eng.profile.dropped_events == 7
        assert points[-1].kind == "trace.truncated"
        # The compute spans the analyses read all survive the cap.
        assert len(eng.profile.of_kind("compute")) == 10

    def test_stats_summary_readable(self):
        eng = Engine(2)
        eng.run(lambda env: env.compute(1.0))
        s = eng.stats.summary()
        assert "compute=2" in s
        assert "messages=0" in s
