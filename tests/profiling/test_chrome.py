"""Chrome trace-event export: schema conformance and stable ordering."""

import json

import numpy as np
import pytest

from repro import mpi
from repro.core.directives import comm_p2p
from repro.netmodel import gemini_model
from repro.profiling.chrome import chrome_trace, export_chrome
from repro.sim import Engine

#: Trace-event fields required per phase type (the subset of the
#: Trace Event Format spec Perfetto's JSON importer validates).
_REQUIRED = {
    "M": {"ph", "name", "pid", "tid", "args"},
    "X": {"ph", "name", "pid", "tid", "ts", "dur"},
    "i": {"ph", "name", "pid", "tid", "ts", "s"},
}


def _run_profiled():
    model = gemini_model()

    def main(env):
        mpi.init(env, model)
        prev = (env.rank - 1 + env.size) % env.size
        nxt = (env.rank + 1) % env.size
        out = np.arange(32.0)
        inb = np.zeros(32)
        with comm_p2p(env, sender=prev, receiver=nxt,
                      sbuf=out, rbuf=inb):
            env.compute(1e-6)

    return Engine(3, profile=True).run(main).profile


class TestTraceEventSchema:
    def test_every_event_is_schema_conformant(self):
        doc = chrome_trace(_run_profiled())
        assert isinstance(doc["traceEvents"], list)
        for event in doc["traceEvents"]:
            assert event["ph"] in _REQUIRED, event
            missing = _REQUIRED[event["ph"]] - set(event)
            assert not missing, f"{event} missing {missing}"
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert isinstance(event["pid"], int)
                assert isinstance(event["tid"], int)

    def test_metadata_names_processes_and_threads(self):
        doc = chrome_trace(_run_profiled())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["pid"], e["args"]["name"]) for e in meta
                 if e["name"] == "process_name"}
        assert (0, "ranks") in names
        assert (1, "network") in names
        threads = {e["args"]["name"] for e in meta
                   if e["name"] == "thread_name" and e["pid"] == 0}
        assert threads == {"rank 0", "rank 1", "rank 2"}

    def test_lane_assignment(self):
        doc = chrome_trace(_run_profiled())
        for event in doc["traceEvents"]:
            if event["ph"] != "X":
                continue
            if event.get("cat") in ("message", "notify"):
                assert event["pid"] == 1
                assert event["tid"] == event["args"]["src"]
            else:
                assert event["pid"] == 0

    def test_deterministic_ordering_and_serialization(self):
        a = json.dumps(chrome_trace(_run_profiled()), sort_keys=True)
        b = json.dumps(chrome_trace(_run_profiled()), sort_keys=True)
        assert a == b
        # Metadata leads; timed events are sorted by (ts, pid, tid, name).
        doc = json.loads(a)
        events = doc["traceEvents"]
        first_timed = next(i for i, e in enumerate(events)
                           if e["ph"] != "M")
        assert all(e["ph"] == "M" for e in events[:first_timed])
        keys = [(e["ts"], e["pid"], e["tid"], e["name"])
                for e in events[first_timed:]]
        assert keys == sorted(keys)

    def test_export_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome(_run_profiled(), str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ns"

    def test_attrs_are_json_safe(self):
        # sync spans carry tuple-valued keys; they must serialize.
        doc = chrome_trace(_run_profiled())
        syncs = [e for e in doc["traceEvents"]
                 if e.get("cat") == "sync"]
        assert syncs
        for e in syncs:
            assert isinstance(e["args"]["send_keys"], list)
            json.dumps(e["args"])

    def test_point_events_are_rank_instants(self):
        profile = _run_profiled()
        doc = chrome_trace(profile)
        points = [e for e in doc["traceEvents"] if e.get("cat") == "point"]
        assert len(points) == sum(1 for s in profile if s.point)
        assert "mpi.recv_post" in {e["name"] for e in points}
        for e in points:
            assert e["ph"] == "i" and e["pid"] == 0 and e["s"] == "t"
