"""Loopback wire phases: the server child, client passes, the paced generator.

The server is ``coinfer serve`` in its own process on 127.0.0.1; this
process is the edge. Every blocking call here has a timeout, and the
server child is always stopped with a bounded wait and then killed.
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import time

import numpy as np

_LISTENING = re.compile(rb"listening on (\S+):(\d+) ")
_FRAME_HEADER = struct.Struct("<4sBI")


def _default_sigint():
    # A shell starts background jobs with SIGINT ignored, and Python keeps an
    # ignored SIGINT ignored; the server must get KeyboardInterrupt from it.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _readline(pipe, timeout: float) -> bytes:
    """One line from a child's stdout, or TimeoutError."""
    deadline = time.monotonic() + timeout
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([pipe], [], [], left)[0]:
            raise TimeoutError("no line from the server child in time")
        chunk = os.read(pipe.fileno(), 4096)
        if not chunk:
            raise ConnectionError(f"server child closed stdout after {buf!r}")
        buf += chunk
    return buf


class ServerChild:
    """``coinfer serve`` in a child process; use as a context manager."""

    def __init__(self, cwd: str, env: dict, manifest: str, partitions: str, k: int, log_path: str):
        self.argv = [sys.executable, "-u", "-m", "coinfer.cli", "serve",
                     "--listen", "127.0.0.1:0", "--manifest", manifest,
                     "--partitions", f"builtin:{partitions}", "--k", str(k)]
        self.cwd, self.env, self.log_path = cwd, env, log_path
        self.proc: subprocess.Popen | None = None
        self.addr: tuple[str, int] | None = None

    def __enter__(self) -> "ServerChild":
        """Start the server and wait until it accepts a connection; sets ``ready_s``."""
        t0 = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(self.argv, cwd=self.cwd, env=self.env,
                                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                         stderr=log, preexec_fn=_default_sigint)
        try:
            match = _LISTENING.search(_readline(self.proc.stdout, timeout=60.0))
            if match is None:
                raise ConnectionError("server child did not report its address")
            self.addr = (match.group(1).decode(), int(match.group(2)))
            socket.create_connection(self.addr, timeout=5.0).close()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0
        return self

    def __exit__(self, *exc):
        self.stop()

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as fh:
            return fh.read()

    def cpu_s(self) -> float:
        """User plus system CPU time of the server so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self):
        """SIGINT (the server's own shutdown path), a bounded wait, then kill."""
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        proc.stdout.close()


def _frames(buf: bytearray):
    """Pop every complete frame off the front of ``buf``."""
    while len(buf) >= _FRAME_HEADER.size:
        total = _FRAME_HEADER.size + _FRAME_HEADER.unpack_from(buf)[2]
        if len(buf) < total:
            return
        frame = bytes(buf[:total])
        del buf[:total]
        yield frame


def paced(sock: socket.socket, requests: list[bytes], rate: float, pair_every: int,
          drain_s: float = 5.0) -> dict:
    """Open loop: send ``requests`` at ``rate`` per second over a connected socket.

    Requests are due every ``1/rate`` seconds, except that request 1 and
    every ``pair_every``-th one after it are due together with the request
    before them. One thread sends each request at its due time and reads
    responses in between. Returns per-request due and sent times (seconds,
    ``perf_counter``; NaN if never sent), the decoded responses with their
    receive times keyed by request id, when the phase ended, and why it
    ended early (a transport or framing error, or missing responses).
    """
    from coinfer import ProtocolError, decode

    n = len(requests)
    sent = np.full(n, np.nan)
    received: dict[int, tuple[float, object]] = {}
    buf = bytearray()
    due = time.perf_counter() + 0.01 + np.arange(n) / rate
    due[1::pair_every] = due[0:n - 1:pair_every]
    next_i = 0
    give_up = None
    error = None
    try:
        while len(received) < n:
            now = time.perf_counter()
            if next_i < n:
                if now >= due[next_i]:
                    sock.sendall(requests[next_i])
                    sent[next_i] = time.perf_counter()
                    next_i += 1
                    continue
                wait = due[next_i] - now
            else:
                give_up = give_up or now + drain_s
                wait = give_up - now
                if wait <= 0:
                    error = f"{n - len(received)} responses missing after {drain_s} s"
                    break
            if select.select([sock], [], [], wait)[0]:
                chunk = sock.recv(65536)
                at = time.perf_counter()
                if not chunk:
                    error = "server closed the connection"
                    break
                buf += chunk
                for frame in _frames(buf):
                    msg = decode(frame)
                    received[msg.request_id] = (at, msg)
    except (OSError, ProtocolError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {"due": due, "sent": sent, "received": received, "end": time.perf_counter(),
            "error": error}


def timed_each(fn, items) -> tuple[float, list]:
    """Mean cost per call of ``fn`` over ``items`` in microseconds, and the results."""
    start = time.perf_counter_ns()
    out = [fn(x) for x in items]
    return (time.perf_counter_ns() - start) / 1e3 / max(len(items), 1), out
