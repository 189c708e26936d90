"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

One profile becomes one JSON object with a ``traceEvents`` array in the
trace-event format's *JSON object* flavor:

* process 0 (``ranks``) holds per-rank activity: one thread per rank,
  ``X`` complete events for compute/post/sync/window/barrier/stall
  spans and the recovery runtime's detect/retry/recovery spans, ``i``
  instant events for crash/checkpoint/restore marks and, with category
  ``point``, for the profile's point events (blocks, unblocks, other
  library calls);
* process 1 (``network``) holds deliveries: one thread per *source*
  rank, ``X`` events for message and notify spans (named by transport),
  so in-flight traffic reads as lanes under the ranks that produced it.

Timestamps are virtual microseconds (the trace-event unit). The event
list is deterministically ordered — metadata first, then by
``(ts, pid, tid, name)`` — and serialized with sorted keys, so exports
of the same run diff cleanly (the schema unit test relies on this).
"""

from __future__ import annotations

import json
from typing import Any

from repro.profiling.spans import Profile, Span

#: Span kinds drawn in the per-rank process.
_ACTIVITY = ("compute", "post", "sync", "window", "barrier", "stall",
             "detect", "retry", "recovery")
#: Span kinds drawn in the network process, on the sender's lane.
_NETWORK = ("message", "notify")
#: Zero-length marks drawn as instant events on the rank lane.
_INSTANT = ("crash", "checkpoint", "restore")


def _us(t: float) -> float:
    """Virtual seconds -> trace-event microseconds (rounded so equal
    virtual times serialize identically)."""
    return round(t * 1e6, 6)


def _args(span: Span) -> dict[str, Any]:
    """JSON-safe span attributes (tuples become lists)."""
    out: dict[str, Any] = {}
    for key, value in span.attrs.items():
        if isinstance(value, (list, tuple)):
            out[key] = [list(v) if isinstance(v, tuple) else v
                        for v in value]
        else:
            out[key] = value
    return out


def _name(span: Span) -> str:
    if span.kind == "message":
        transport = span.attrs.get("transport", "?")
        return f"message {span.attrs.get('src')}->{span.attrs.get('dst')} " \
               f"({transport})"
    if span.kind == "notify":
        return f"notify {span.attrs.get('src')}->{span.attrs.get('dst')}"
    if span.kind == "post":
        return f"post ({span.attrs.get('target', '?')})"
    if span.kind == "barrier":
        return f"barrier {span.attrs.get('name', '')}".rstrip()
    return span.kind


def chrome_trace(profile: Profile) -> dict[str, Any]:
    """Build the trace-event JSON object for one profile."""
    nranks = profile.nranks
    events: list[dict[str, Any]] = []

    meta: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": "ranks"}},
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "network"}},
    ]
    for rank in range(nranks):
        meta.append({"ph": "M", "name": "thread_name", "pid": 0,
                     "tid": rank, "args": {"name": f"rank {rank}"}})
        meta.append({"ph": "M", "name": "thread_name", "pid": 1,
                     "tid": rank, "args": {"name": f"from rank {rank}"}})

    for span in profile:
        if span.t1 is None:  # pragma: no cover - finish() closes these
            continue
        if span.point or span.kind in _INSTANT:
            cat = ("point" if span.point
                   else "fault" if span.kind == "crash" else "recovery")
            events.append({"ph": "i", "name": span.kind, "cat": cat,
                           "pid": 0, "tid": span.rank, "ts": _us(span.t0),
                           "s": "t", "args": _args(span)})
            continue
        if span.kind in _NETWORK:
            src = span.attrs.get("src", span.rank)
            tid = src if isinstance(src, int) else span.rank
            pid = 1
        elif span.kind in _ACTIVITY:
            pid, tid = 0, span.rank
        else:  # pragma: no cover - future kinds default to the rank lane
            pid, tid = 0, span.rank
        events.append({"ph": "X", "name": _name(span), "cat": span.kind,
                       "pid": pid, "tid": tid, "ts": _us(span.t0),
                       "dur": _us(span.duration), "args": _args(span)})

    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    return {"traceEvents": meta + events, "displayTimeUnit": "ns"}


def export_chrome(profile: Profile, path: str) -> None:
    """Write the trace-event JSON for ``profile`` to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(chrome_trace(profile), f, sort_keys=True,
                  separators=(",", ":"))
        f.write("\n")
