"""Happens-before graph over per-rank symbolic event traces.

The verifier (:mod:`repro.core.analysis.verify`) unrolls a directive
program into one event trace per rank — posts, synchronization calls,
and buffer uses. This module holds the graph machinery those traces
feed:

* **events** are totally ordered within a rank (program order) and
  cross-rank edges express what an event *waits for* before it can
  execute (a Waitall waiting for the matching post, a one-sided put
  waiting for its exposure epoch, a notify-wait waiting for the
  origin's flush);
* the **executability fixpoint** computes which events can ever run: an
  event runs once everything before it on its rank ran and every
  cross-rank prerequisite ran. Events left non-executable are a proof
  of deadlock — either a prerequisite is *missing* (a wait on a message
  nobody sends) or the blocked events form a cross-rank cycle;
* :func:`find_cycle` recovers the rank-level wait cycle for the
  diagnostic message.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

#: Event kinds.
POST_SEND = "post_send"
POST_RECV = "post_recv"
SYNC = "sync"
USE = "use"


@dataclass(eq=False)
class Event:
    """One abstract operation on one rank (identity-hashed)."""

    rank: int
    index: int                      # position in the rank's trace
    kind: str                       # POST_SEND | POST_RECV | SYNC | USE
    line: int = 0                   # source line for diagnostics
    #: Line of the directive this event belongs to (posts/overlap uses).
    directive: int | None = None
    #: Peer rank: destination for sends, source for receives.
    peer: int | None = None
    #: Buffer base names the event touches (posts and uses).
    names: frozenset[str] = frozenset()
    #: Raw-code writes to declared buffers: ``(base name, index
    #: expression text)`` pairs (empty index text = whole buffer).
    writes: frozenset[tuple[str, str]] = frozenset()
    #: Directive lines whose overlap body lexically encloses this event.
    enclosing: tuple[int, ...] = ()

    def describe(self) -> str:
        """Short human-readable description for diagnostics."""
        if self.kind == POST_SEND:
            return f"send to rank {self.peer} (line {self.line})"
        if self.kind == POST_RECV:
            return f"receive from rank {self.peer} (line {self.line})"
        if self.kind == SYNC:
            return f"synchronization at line {self.line}"
        return f"use of {sorted(self.names)} at line {self.line}"


@dataclass(eq=False)
class Handle:
    """One posted message half awaiting synchronization (static twin of
    the runtime's Send/RecvHandle)."""

    kind: str                       # "send" | "recv"
    rank: int
    peer: int                       # dest for sends, source for recvs
    post: Event
    directive: int                  # directive source line
    names: frozenset[str]           # buffer base names it moves
    target: str                     # lowering target keyword
    #: The buffer expression as written (``&buf[p]``), for the
    #: byte-interval derivation of :mod:`repro.core.analysis.access`.
    expr: str = ""
    #: The sync event that completed this handle; None when a weakened
    #: plan discarded it (the runtime handle was dropped before sync).
    sync: Event | None = None
    #: The matched opposite half on the peer rank, if any.
    matched: "Handle | None" = None
    #: The positionally paired half whose lowering target disagrees
    #: (CI007): the shared sequence counters pair them, but no backend
    #: delivers across lowerings, so they never match.
    mislowered: "Handle | None" = None
    #: For sends: the paired destination-buffer expression (the rbuf the
    #: runtime zips with this sbuf), for delivery-site byte intervals.
    dest_expr: str = ""
    #: id() of the enclosing region node; None for standalone p2p.
    region_key: int | None = None


@dataclass
class HBGraph:
    """Per-rank traces plus cross-rank waits-for dependencies."""

    nprocs: int
    traces: list[list[Event]] = field(default_factory=list)
    #: Cross-rank prerequisites: event -> events it waits for.
    deps: dict[Event, list[Event]] = field(default_factory=dict)
    #: Unsatisfiable prerequisites: event -> human-readable reasons
    #: paired with the rule code that proves the deadlock.
    missing: dict[Event, list[tuple[str, str, int | None]]] = field(
        default_factory=dict)

    def add_dep(self, event: Event, prerequisite: Event) -> None:
        """Record that ``event`` cannot execute before ``prerequisite``."""
        self.deps.setdefault(event, []).append(prerequisite)

    def add_missing(self, event: Event, code: str, reason: str,
                    directive: int | None = None) -> None:
        """Record a prerequisite that no rank ever produces.

        ``directive`` is the source line of the directive whose
        communication is unsatisfiable (the event itself may be a
        consolidated sync covering several directives).
        """
        self.missing.setdefault(event, []).append((code, reason, directive))

    # -- executability ----------------------------------------------------

    def executable(self) -> set[Event]:
        """Least fixpoint of events that can ever run.

        A rank's events execute in order; each event additionally needs
        its cross-rank prerequisites. An event with a missing
        prerequisite blocks its rank permanently.
        """
        done: set[Event] = set()
        progress = [0] * len(self.traces)
        changed = True
        while changed:
            changed = False
            for rank, trace in enumerate(self.traces):
                i = progress[rank]
                while i < len(trace):
                    event = trace[i]
                    if event in self.missing:
                        break
                    if any(d not in done for d in
                           self.deps.get(event, ())):
                        break
                    done.add(event)
                    i += 1
                    changed = True
                progress[rank] = i
        return done

    def blocked_frontier(self, done: set[Event]) -> list[Event]:
        """Each rank's first non-executable event (ranks that finish
        their trace contribute nothing)."""
        frontier: list[Event] = []
        for trace in self.traces:
            for event in trace:
                if event not in done:
                    frontier.append(event)
                    break
        return frontier


def vector_clocks(graph: HBGraph) -> dict[Event, list[int]]:
    """Per-event vector clocks over the happens-before relation.

    ``vc[e][r]`` is the number of rank-``r`` events that happen before
    ``e`` (inclusive of ``e`` itself on its own rank): an event ``a``
    happens before ``b`` iff ``vc[b][a.rank] > a.index``. Only events
    the executability fixpoint reaches get a clock — blocked events
    (deadlocked programs) are absent from the result.
    """
    done: dict[Event, list[int]] = {}
    n = graph.nprocs
    progress = [0] * len(graph.traces)
    changed = True
    while changed:
        changed = False
        for tidx, trace in enumerate(graph.traces):
            i = progress[tidx]
            while i < len(trace):
                event = trace[i]
                if event in graph.missing:
                    break
                deps = graph.deps.get(event, ())
                if any(d not in done for d in deps):
                    break
                vc = list(done[trace[i - 1]]) if i else [0] * n
                for d in deps:
                    dv = done[d]
                    for k in range(n):
                        if dv[k] > vc[k]:
                            vc[k] = dv[k]
                vc[event.rank] = event.index + 1
                done[event] = vc
                i += 1
                changed = True
            progress[tidx] = i
    return done


# ---------------------------------------------------------------------------
# Content-hash keyed unroll cache
#
# One symbolic unroll — the per-rank tracers plus the assembled
# happens-before graph — is pure in (source text, nprocs, extra_vars,
# target, weakening, sync-plan shape). The verify, race and batch-lint
# passes all consume the same unroll, and batch linting thousands of
# generated programs (repro.gen) re-verifies identical shrunk
# candidates constantly; caching by content hash means each distinct
# (program, nprocs, target) pays the graph cost once instead of once
# per pass.


@dataclass
class CachedUnroll:
    """One memoized symbolic unroll: tracers + graph (either may be
    ``None``-ish only in the nothing-to-unroll case, where ``graph`` is
    ``None`` and ``tracers`` is the empty-handled tracer list)."""

    tracers: list[Any]
    graph: "HBGraph | None"


#: Default :class:`GraphCache` bound. Every hit lands within 2 puts of
#: its store: the passes that share an unroll (the oracle's verify
#: sweep, then its payload check) ask for the same 1-3 per-target
#: unrolls back to back. Over 60 generated programs through the diffgen
#: oracle, 180 of 360 lookups hit, at reuse distances 0, 1 and 2 (60
#: each); over 150 files through ``lint_sources`` with the advisor, 0
#: of 450 hit. An unroll of a generated program holds about 30 KB
#: (tracemalloc, 180 of them), so a larger bound only holds memory no
#: hit reaches.
GRAPH_CACHE_SIZE = 32


class GraphCache:
    """Bounded LRU of :class:`CachedUnroll` keyed by content hash."""

    def __init__(self, maxsize: int = GRAPH_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[str, CachedUnroll] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: str) -> CachedUnroll | None:
        """The cached unroll for ``key``, refreshing its LRU slot."""
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: CachedUnroll) -> None:
        """Store ``value``, evicting the least recently used entry."""
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Counters for tooling (the ``repro-gen`` stats artifact)."""
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses}


#: The process-wide unroll cache :func:`repro.core.analysis.verify.
#: verify_program` consults (pass ``cache=False`` there to bypass).
GRAPH_CACHE = GraphCache()


def unroll_key(source: str, nprocs: int, target: str,
               extra_vars: dict[str, int] | None,
               weakening: str | None,
               plan_fingerprint: tuple[tuple[int, str], ...]) -> str:
    """Content hash identifying one symbolic unroll.

    Everything the unroll is a pure function of participates: the
    printed source (the parse/print fixpoint makes it canonical), the
    world size, extra variable bindings, the default lowering target,
    the applied weakening, and the sync-plan shape (line/position pairs
    — a caller-mutated plan changes the fingerprint).
    """
    h = hashlib.sha256()
    h.update(source.encode())
    h.update(repr((nprocs, target, weakening,
                   tuple(sorted((extra_vars or {}).items())),
                   plan_fingerprint)).encode())
    return h.hexdigest()


def find_cycle(graph: HBGraph, done: set[Event]) -> list[Event]:
    """A cross-rank wait cycle among the blocked frontier events.

    Each blocked event waits (directly, or transitively through its
    rank's program order) on some other rank's blocked event; following
    that relation from any frontier event must revisit a rank, closing
    the cycle. Returns the frontier events forming the cycle, in wait
    order; empty when the blockage is caused by missing prerequisites
    only.
    """
    frontier = {e.rank: e for e in graph.blocked_frontier(done)}

    def next_blocked(event: Event) -> Event | None:
        for dep in graph.deps.get(event, ()):
            if dep not in done:
                # The dependency itself is blocked on its own rank's
                # frontier (it cannot run because an earlier event on
                # its rank is stuck, or it is the stuck event).
                return frontier.get(dep.rank)
        return None

    for start in frontier.values():
        seen: list[Event] = []
        cur: Event | None = start
        while cur is not None and cur not in seen:
            seen.append(cur)
            cur = next_blocked(cur)
        if cur is not None:
            return seen[seen.index(cur):]
    return []
