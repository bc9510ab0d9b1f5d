"""The stock ``repro serve`` process and the benchmark's HTTP clients.

The clients send pre-serialized request bytes over raw keep-alive sockets
and frame responses by ``Content-Length`` only, so the client's own cost
per request stays far below the server's.  Bodies are kept as bytes; the
checks parse a sample of them after the timed part.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

_ANNOUNCE = re.compile(rb"on http://[^:]+:(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral port, CLI defaults."""

    def __init__(self, registry: Path, root: Path, env: dict, log: Path, launcher=None):
        serve_args = ["serve", "--registry", str(registry), "--port", "0"]
        if launcher is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            script, trace_out = launcher
            cmd = [sys.executable, str(script), str(trace_out), *serve_args]
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.port = None

    def wait_ready(self) -> None:
        """Block until the server announced its port and answers /healthz."""
        deadline = time.monotonic() + START_TIMEOUT_S
        line = self.proc.stdout.readline()
        match = _ANNOUNCE.search(line)
        if match is None:
            raise RuntimeError(f"repro serve did not announce a port: {line!r}")
        self.port = int(match.group(1))
        while True:
            try:
                status, _ = get(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not become healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, and reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def get(port: int, path: str) -> tuple[int, dict]:
    """One GET on a fresh connection; ``(status, JSON body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n".encode()
        )
        status, body = _read_one(sock, bytearray())
    return status, json.loads(body)


def _frame(buf: bytearray) -> tuple[int, bytes, int] | None:
    """``(status, body, consumed)`` of the first complete response in ``buf``."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).lower()
    at = head.find(b"content-length:")
    length = 0
    if at >= 0:
        eol = head.find(b"\r\n", at)
        length = int(head[at + 15 : eol if eol >= 0 else len(head)])
    total = end + 4 + length
    if len(buf) < total:
        return None
    return int(head[9:12]), bytes(buf[end + 4 : total]), total


def _read_one(sock: socket.socket, buf: bytearray) -> tuple[int, bytes]:
    while True:
        framed = _frame(buf)
        if framed is not None:
            status, body, used = framed
            del buf[:used]
            return status, body
        chunk = sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        buf += chunk


def one_at_a_time(port: int, payloads: list[bytes]) -> tuple[list[float], list[int], list[bytes]]:
    """Closed loop of one caller: send, wait for the answer, send the next.

    Returns per-request latencies (seconds), statuses and bodies.
    """
    latencies, statuses, bodies = [], [], []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        for wire in payloads:
            start = time.perf_counter()
            sock.sendall(wire)
            status, body = _read_one(sock, buf)
            latencies.append(time.perf_counter() - start)
            statuses.append(status)
            bodies.append(body)
    return latencies, statuses, bodies


def pipelined_stream(
    port: int, per_connection: list[list[bytes]]
) -> tuple[float, list[list[int]], list[list[bytes]]]:
    """Stream every connection's requests back to back, without waiting.

    One keep-alive connection per list; requests are written as fast as the
    socket takes them while responses are read as they arrive.  Returns the
    wall time from the first byte sent to the last response received, and
    the statuses and bodies per connection in request order.
    """
    sel = selectors.DefaultSelector()
    conns = []
    try:
        for payloads in per_connection:
            sock = socket.create_connection(("127.0.0.1", port), timeout=60)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            state = {
                "sock": sock,
                "out": memoryview(b"".join(payloads)),
                "sent": 0,
                "in": bytearray(),
                "expected": len(payloads),
                "statuses": [],
                "bodies": [],
            }
            conns.append(state)
            sel.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE, state)
        pending = sum(1 for c in conns if c["expected"])
        start = time.perf_counter()
        while pending:
            ready = sel.select(timeout=60)
            if not ready:
                raise TimeoutError("no progress on the stream for 60 s")
            for key, events in ready:
                c = key.data
                if events & selectors.EVENT_WRITE:
                    if c["sent"] < len(c["out"]):
                        try:
                            c["sent"] += c["sock"].send(c["out"][c["sent"] : c["sent"] + (1 << 20)])
                        except BlockingIOError:
                            pass
                    if c["sent"] >= len(c["out"]):
                        sel.modify(c["sock"], selectors.EVENT_READ, c)
                if events & selectors.EVENT_READ:
                    chunk = c["sock"].recv(1 << 18)
                    if not chunk:
                        raise ConnectionError("server closed a streaming connection")
                    c["in"] += chunk
                    while True:
                        framed = _frame(c["in"])
                        if framed is None:
                            break
                        status, body, used = framed
                        del c["in"][:used]
                        c["statuses"].append(status)
                        c["bodies"].append(body)
                        if len(c["statuses"]) == c["expected"]:
                            sel.unregister(c["sock"])
                            pending -= 1
                            break
        elapsed = time.perf_counter() - start
    finally:
        sel.close()
        for c in conns:
            c["sock"].close()
    return elapsed, [c["statuses"] for c in conns], [c["bodies"] for c in conns]


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for a server: the checkout's sources, a private temp dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env
