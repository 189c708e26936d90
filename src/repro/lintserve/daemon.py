"""Warm lint daemon over a unix socket (``repro-lint --serve``).

Process startup — interpreter boot, importing the analysis stack,
hashing the analysis salt — dominates an editor-triggered or
CI-step-triggered lint of a few files. The daemon pays those costs
once: it binds a unix domain socket, keeps a warm worker pool and a
result cache (on-disk when ``--cache-dir`` is given, in-memory
otherwise), and answers lint requests until told to shut down.

Protocol (newline-delimited JSON, one request per connection)::

    -> {"op": "ping"}
    <- {"ok": true, "pid": 1234}

    -> {"op": "lint", "inputs": ["/abs/a.c"], "nprocs": 8,
        "vars": {"px": 3}, "target": null, "advise": false,
        "catalog": false, "format": "json", "fail_on": "error"}
    <- {"ok": true, "exit_code": 0, "output": "...", "error": "",
        "stats": {...}}

    -> {"op": "stats"}
    <- {"ok": true, "stats": {...cumulative cache counters...}}

    -> {"op": "shutdown"}
    <- {"ok": true}

Each ``lint`` request runs :func:`repro.core.pragma.__main__.run_request`,
the same driver a local ``repro-lint`` runs in-process, so ``output``
and ``exit_code`` are those of a local run of the same request and a
client can transparently substitute the daemon for it. The CLI client
is :func:`repro.core.pragma.__main__.main_lint`
(``repro-lint --socket PATH ...``). A line that is not a JSON object
gets an ``{"ok": false, "error": "bad request: ..."}`` answer; the
daemon keeps serving.

The daemon answers one connection at a time, so each connection is
bounded: its request line must arrive within :data:`READ_DEADLINE_S`
and stay under :data:`MAX_REQUEST_BYTES`. A client that connects and
stays silent, or sends an oversized line, gets a ``bad request``
answer and is closed, and the next client is served.
"""

from __future__ import annotations

import json
import os
import socket
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.lintserve.cache import MemoryCache, ResultCache

__all__ = ["LintDaemon", "LintRequest", "request_over_socket"]

#: recv buffer size for the line reader.
_BUFSIZE = 65536
#: Seconds a connection may take to deliver its request line (and,
#: once answered, to take the answer).
READ_DEADLINE_S = 10.0
#: The longest request line the daemon reads, in bytes.
MAX_REQUEST_BYTES = 1 << 20


@dataclass
class LintRequest:
    """One lint invocation, as carried over the wire.

    ``inputs`` are kept exactly as the client typed them — they name
    the reports in the output, and byte-identity with a local run
    demands the original spelling. Relative paths are resolved
    against ``cwd`` (the client's working directory) at read time.
    """

    inputs: list[str] = field(default_factory=list)
    cwd: str = ""
    nprocs: int = 8
    vars: dict[str, int] = field(default_factory=dict)
    target: str | None = None
    advise: bool = False
    catalog: bool = False
    format: str = "text"
    fail_on: str = "error"

    @classmethod
    def from_dict(cls, data: dict) -> "LintRequest":
        """Decode one wire request (tolerant of missing fields)."""
        return cls(
            inputs=[str(p) for p in data.get("inputs", [])],
            cwd=str(data.get("cwd", "")),
            nprocs=int(data.get("nprocs", 8)),
            vars={str(k): int(v)
                  for k, v in data.get("vars", {}).items()},
            target=data.get("target"),
            advise=bool(data.get("advise", False)),
            catalog=bool(data.get("catalog", False)),
            format=str(data.get("format", "text")),
            fail_on=str(data.get("fail_on", "error")),
        )

    def as_dict(self) -> dict:
        """The wire form (an ``op: lint`` request)."""
        return {"op": "lint", "inputs": list(self.inputs),
                "cwd": self.cwd,
                "nprocs": self.nprocs, "vars": dict(self.vars),
                "target": self.target, "advise": self.advise,
                "catalog": self.catalog, "format": self.format,
                "fail_on": self.fail_on}


class LintDaemon:
    """The ``--serve`` loop: warm pool + cache behind a unix socket."""

    def __init__(self, socket_path: str | Path, *, jobs: int = 1,
                 cache_dir: str | Path | None = None) -> None:
        self.socket_path = Path(socket_path)
        self.jobs = max(1, jobs)
        self.cache: ResultCache = (ResultCache(cache_dir)
                                   if cache_dir is not None
                                   else MemoryCache())
        self.requests_served = 0
        self._executor: Executor | None = None

    def _pool(self) -> Executor | None:
        """The warm worker pool (spun up on first use)."""
        if self.jobs <= 1:
            return None
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def handle(self, request: object) -> tuple[dict, bool]:
        """Dispatch one decoded request → (response, keep_serving)."""
        if not isinstance(request, dict):
            return {"ok": False, "error": "bad request: expected a "
                    f"JSON object, got {type(request).__name__}"}, True
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "requests_served": self.requests_served}, True
        if op == "stats":
            return {"ok": True, "stats": {
                "requests_served": self.requests_served,
                "jobs": self.jobs,
                "cache": self.cache.stats(),
            }}, True
        if op == "shutdown":
            return {"ok": True}, False
        if op == "lint":
            # Imported here: the CLI module imports this package.
            from repro.core.pragma.__main__ import run_request

            try:
                response = run_request(
                    LintRequest.from_dict(request), jobs=self.jobs,
                    cache=self.cache, executor=self._pool())
            except Exception as exc:  # surface, don't kill the daemon
                return {"ok": False,
                        "error": f"{type(exc).__name__}: {exc}"}, True
            self.requests_served += 1
            return response, True
        return {"ok": False, "error": f"unknown op {op!r}"}, True

    def serve_forever(self,
                      on_ready: Callable[[], None] | None = None
                      ) -> None:
        """Bind the socket and answer requests until shutdown."""
        if self.socket_path.exists():
            # A stale socket from a dead daemon blocks bind(); a live
            # one must not be hijacked.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(str(self.socket_path))
            except OSError:
                self.socket_path.unlink()
            else:
                probe.close()
                raise RuntimeError(
                    f"a daemon is already serving {self.socket_path}")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            server.bind(str(self.socket_path))
            server.listen(8)
            if on_ready is not None:
                on_ready()
            serving = True
            while serving:
                conn, _ = server.accept()
                with conn:
                    try:
                        line = _read_line(conn)
                        if not line:
                            continue
                        request = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        # A silent or oversized connection, malformed
                        # JSON, bytes that are not UTF-8, or nesting
                        # past the decoder's recursion limit.
                        _send(conn, {"ok": False,
                                     "error": f"bad request: {exc}"})
                        continue
                    except OSError:
                        continue  # the client vanished mid-request
                    response, serving = self.handle(request)
                    _send(conn, response)
        finally:
            server.close()
            try:
                self.socket_path.unlink()
            except OSError:
                pass
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None


def _read_line(conn: socket.socket) -> bytes:
    """Read up to the first newline (requests are one JSON line).

    Raises ``ValueError`` when the line is not complete within
    :data:`READ_DEADLINE_S` or grows past :data:`MAX_REQUEST_BYTES`.
    """
    deadline = time.monotonic() + READ_DEADLINE_S
    chunks = []
    size = 0
    while True:
        remaining = deadline - time.monotonic()
        try:
            if remaining <= 0:  # a trickling client runs out too
                raise socket.timeout
            conn.settimeout(remaining)
            data = conn.recv(_BUFSIZE)
        except socket.timeout:
            raise ValueError(
                f"no request line within {READ_DEADLINE_S:g} s") from None
        if not data:
            break
        chunks.append(data)
        size += len(data)
        if b"\n" in data or size > MAX_REQUEST_BYTES:
            break
    line = b"".join(chunks).split(b"\n", 1)[0]
    if len(line) > MAX_REQUEST_BYTES:
        raise ValueError(
            f"request line exceeds {MAX_REQUEST_BYTES} bytes")
    return line


def _send(conn: socket.socket, response: dict) -> None:
    conn.settimeout(READ_DEADLINE_S)
    try:
        conn.sendall(json.dumps(response).encode() + b"\n")
    except OSError:
        pass  # the client hung up before reading its answer


def request_over_socket(socket_path: str | Path,
                        request: dict,
                        timeout: float = 300.0) -> dict:
    """Send one request to a running daemon and decode the response."""
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(timeout)
    with client:
        client.connect(str(socket_path))
        client.sendall(json.dumps(request).encode() + b"\n")
        chunks = []
        while True:
            data = client.recv(_BUFSIZE)
            if not data:
                break
            chunks.append(data)
            if b"\n" in data:
                break
    payload = b"".join(chunks).split(b"\n", 1)[0]
    if not payload:
        raise ConnectionError(
            f"empty response from daemon at {socket_path}")
    response = json.loads(payload)
    if not isinstance(response, dict):
        raise ConnectionError(
            f"malformed response from daemon at {socket_path}")
    return response
