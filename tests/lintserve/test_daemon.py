"""The warm unix-socket daemon: protocol, equivalence, lifecycle."""

import json
import select
import socket
import threading
import time

import pytest

from repro.core.pragma.__main__ import main_lint
from repro.lintserve import LintDaemon, LintRequest, request_over_socket
from repro.lintserve import daemon as daemon_mod


@pytest.fixture
def ring_file(tmp_path):
    f = tmp_path / "ring.c"
    f.write_text(
        "double buf1[100];\n"
        "double buf2[100];\n"
        "int rank, nprocs;\n"
        "#pragma comm_p2p sender((rank-1+nprocs)%nprocs) "
        "receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)\n")
    return str(f)


@pytest.fixture
def daemon(tmp_path):
    sock = str(tmp_path / "lintd.sock")
    d = LintDaemon(sock)
    ready = threading.Event()
    thread = threading.Thread(target=d.serve_forever, daemon=True,
                              kwargs={"on_ready": ready.set})
    thread.start()
    assert ready.wait(timeout=10), "daemon never bound its socket"
    yield sock
    try:
        request_over_socket(sock, {"op": "shutdown"}, timeout=10)
    except OSError:
        pass
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_ping_stats_and_unknown_op(daemon):
    pong = request_over_socket(daemon, {"op": "ping"})
    assert pong["ok"] and pong["requests_served"] == 0
    stats = request_over_socket(daemon, {"op": "stats"})
    assert stats["ok"] and stats["stats"]["cache"]["root"] == "<memory>"
    bad = request_over_socket(daemon, {"op": "frobnicate"})
    assert not bad["ok"] and "unknown op" in bad["error"]


def test_daemon_output_matches_local_run(daemon, ring_file, capsys):
    for fmt in ("text", "json", "sarif"):
        for flags in ([], ["--advise"], ["--catalog", "--var", "px=3"]):
            argv = [ring_file, "--format", fmt, *flags]
            local_rc = main_lint(argv)
            local_out = capsys.readouterr().out
            assert main_lint(argv + ["--socket", daemon]) == local_rc == 0
            assert capsys.readouterr().out == local_out, argv
    # A repeated request is served from the daemon's warm cache.
    request = LintRequest(inputs=[ring_file], format="json")
    response = request_over_socket(daemon, request.as_dict())
    assert response["ok"] and response["exit_code"] == 0
    assert response["stats"]["units_executed"] == 0


def test_client_cli_round_trip(daemon, ring_file, capsys):
    local_rc = main_lint([ring_file])
    local_out = capsys.readouterr().out
    rc = main_lint([ring_file, "--socket", daemon])
    assert rc == local_rc
    assert capsys.readouterr().out == local_out


def test_relative_paths_resolve_against_client_cwd(daemon, ring_file,
                                                   tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main_lint(["ring.c", "--socket", daemon])
    out = capsys.readouterr().out
    assert rc == 0
    # The report names the path exactly as typed, not resolved.
    assert out.startswith("== ring.c\n")


def test_missing_file_is_exit_2(daemon):
    request = LintRequest(inputs=["/nonexistent/nope.c"])
    response = request_over_socket(daemon, request.as_dict())
    assert response["exit_code"] == 2
    assert "error" in response["error"]


def test_stats_out_writes_the_daemons_stats(daemon, ring_file, tmp_path,
                                           capsys):
    out = tmp_path / "stats.json"
    assert main_lint([ring_file, "--socket", daemon,
                      "--stats-out", str(out)]) == 0
    capsys.readouterr()
    stats = json.loads(out.read_text())
    assert stats["units_total"] == 4
    assert stats["cache"]["root"] == "<memory>"


def test_nprocs_below_one_is_exit_2(daemon, ring_file):
    request = LintRequest(inputs=[ring_file], nprocs=0)
    response = request_over_socket(daemon, request.as_dict())
    assert response["ok"] and response["exit_code"] == 2
    assert response["output"] == ""
    assert response["error"].startswith("repro-lint: error: nprocs")


def _send_raw(sock_path, line):
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(10)
    with client:
        client.connect(sock_path)
        client.sendall(line + b"\n")
        return json.loads(client.makefile("rb").readline())


@pytest.mark.parametrize("line", [b"[1]", b'"x"', b"null", b"3",
                                  b'"\xff"', b"[" * 100_000],
                         ids=["list", "string", "null", "number",
                              "not_utf8", "deep_nesting"])
def test_bad_request_is_answered_and_daemon_keeps_serving(daemon, line):
    response = _send_raw(daemon, line)
    assert not response["ok"]
    assert response["error"].startswith("bad request: ")
    assert request_over_socket(daemon, {"op": "ping"})["ok"]


def test_idle_client_does_not_block_the_next(daemon, monkeypatch):
    monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.5)
    idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    idle.settimeout(10)
    with idle:
        idle.connect(daemon)  # connects and never sends a line
        assert request_over_socket(daemon, {"op": "ping"}, timeout=10)["ok"]
        response = json.loads(idle.makefile("rb").readline())
    assert not response["ok"]
    assert response["error"] == "bad request: no request line within 0.5 s"


def test_trickling_client_runs_out_of_time(daemon, monkeypatch):
    monkeypatch.setattr(daemon_mod, "READ_DEADLINE_S", 0.5)
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(10)
    start = time.monotonic()
    with client:
        client.connect(daemon)
        # One byte every 50 ms: no single recv waits out the deadline.
        while time.monotonic() - start < 5:
            try:
                client.sendall(b" ")
            except OSError:
                break
            if select.select([client], [], [], 0.05)[0]:
                break
        response = json.loads(client.makefile("rb").readline())
    assert time.monotonic() - start < 5
    assert response["error"] == "bad request: no request line within 0.5 s"
    assert request_over_socket(daemon, {"op": "ping"}, timeout=10)["ok"]


def test_oversized_request_is_refused(daemon, monkeypatch):
    monkeypatch.setattr(daemon_mod, "MAX_REQUEST_BYTES", 1024)
    response = _send_raw(daemon, b"[" + b" " * 4096 + b"]")
    assert response == {"ok": False, "error":
                        "bad request: request line exceeds 1024 bytes"}
    assert request_over_socket(daemon, {"op": "ping"}, timeout=10)["ok"]


def test_oversized_line_without_newline_is_refused(daemon, monkeypatch):
    monkeypatch.setattr(daemon_mod, "MAX_REQUEST_BYTES", 1024)
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(10)
    with client:
        client.connect(daemon)
        client.sendall(b"x" * 2048)  # no newline, and never finished
        response = json.loads(client.makefile("rb").readline())
    assert response["error"] == "bad request: request line exceeds 1024 bytes"
    assert request_over_socket(daemon, {"op": "ping"}, timeout=10)["ok"]


def test_client_hanging_up_early_does_not_kill_daemon(daemon, ring_file):
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(daemon)
    request = LintRequest(inputs=[ring_file], advise=True)
    client.sendall(json.dumps(request.as_dict()).encode() + b"\n")
    client.close()  # gone before the lint finishes and is answered
    assert request_over_socket(daemon, {"op": "ping"}, timeout=60)["ok"]


def test_second_daemon_on_live_socket_refuses(daemon):
    with pytest.raises(RuntimeError, match="already serving"):
        LintDaemon(daemon).serve_forever()


def test_client_without_daemon_is_exit_2(tmp_path, capsys):
    rc = main_lint(["whatever.c",
                    "--socket", str(tmp_path / "dead.sock")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
