"""The service under test as a subprocess, and the closed-loop HTTP clients."""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


class Server:
    """One server process on an ephemeral localhost port.

    ``argv`` is the command after the interpreter; stderr goes to
    ``log`` so a chatty server can never block on a full pipe.
    """

    def __init__(self, argv: Sequence[str], src: Path, log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL, text=True, env=env,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if not match:
            self.stop()
            raise BenchError(f"server did not start (see {log}): {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def estimate_path(query: Dict[str, str]) -> str:
    return "/estimate?" + urlencode(query)


class Reply:
    """One request's outcome as the client saw it."""

    __slots__ = ("status", "tier", "body", "seconds", "error")

    def __init__(self) -> None:
        self.status: Optional[int] = None
        self.tier: Optional[str] = None
        self.body = b""
        self.seconds = 0.0
        self.error: Optional[str] = None


def _exchange(conn: http.client.HTTPConnection, path: str, reply: Reply,
              headers: Dict[str, str]) -> None:
    start = time.perf_counter()
    try:
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        reply.body = response.read()
        reply.status = response.status
        reply.tier = response.getheader("X-Repro-Cache")
    except (OSError, http.client.HTTPException) as exc:
        reply.error = f"{type(exc).__name__}: {exc}"
    reply.seconds = time.perf_counter() - start


def fresh_connection_get(port: int, path: str) -> Reply:
    """One request on its own connection, closed after the response — what
    ``urllib`` (and ``tools/service_smoke.py``) do."""
    reply = Reply()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        _exchange(conn, path, reply, {"Connection": "close"})
    finally:
        conn.close()
    return reply


def closed_loop_fresh(port: int, paths: Iterator[str], seconds: float, block: int,
                      after: int, probe: Callable[[], None]) -> List[Reply]:
    """One client, a new connection per request, until ``seconds`` pass,
    stopping only after whole blocks of ``block`` requests.  ``probe``
    runs, untimed, once ``after`` requests are done (or at the end)."""
    replies: List[Reply] = []
    deadline = time.perf_counter() + seconds
    while not replies or len(replies) % block or time.perf_counter() < deadline:
        replies.append(fresh_connection_get(port, next(paths)))
        if len(replies) == after:
            paused = time.perf_counter()
            probe()
            deadline += time.perf_counter() - paused
    if len(replies) < after:
        probe()
    return replies


def closed_loop_keepalive(port: int, streams: Sequence[Iterator[str]],
                          seconds: float) -> Tuple[List[List[Reply]], float]:
    """One thread per stream, each holding one persistent HTTP/1.1
    connection, sending its next request when the last reply is read.
    Returns the replies per stream and the wall time from the common
    start to the last reply."""
    results: List[List[Reply]] = [[] for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)

    def client(slot: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        out = results[slot]
        barrier.wait()
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                reply = Reply()
                _exchange(conn, next(streams[slot]), reply, {})
                out.append(reply)
                if reply.error is not None:  # reconnect; the failure counts
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start
