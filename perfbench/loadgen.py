"""The benchmark's own load generator: one thread, a few TCP connections.

Both loops multiplex their connections with ``select`` on the calling
thread, so the load comes from a single process and thread no matter how
many connections it holds.  ``select`` takes its timeout in microseconds
where ``epoll`` rounds it up to a millisecond, which would make the
open-loop sender late by design.

* :func:`closed_loop` — each connection keeps exactly one request in
  flight and sends the next only when the reply arrives, like the
  paper's Figure 1 client waiting for its bid.
* :func:`open_loop` — requests are due on a fixed schedule regardless of
  replies, like independent users.  Latency is timed from each request's
  *due* time, so a stall is charged to every request queued behind it,
  and the generator's own lateness (send time minus due time) is
  reported so a late generator is visible.

A reply counts as good when it starts with ``{"ok":true``; anything
else, a closed connection or a reply missing at the drain deadline is a
failed request.
"""

from __future__ import annotations

import math
import selectors
import socket
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

_OK = b'{"ok":true'


def _connect(host: str, port: int, count: int) -> List[socket.socket]:
    conns = []
    for _ in range(count):
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conns.append(sock)
    return conns


def _close(conns: Sequence[socket.socket]) -> None:
    for sock in conns:
        try:
            sock.close()
        except OSError:
            pass


def _read_lines(sock: socket.socket, buffers: Dict[int, bytearray]) -> List[bytes]:
    """Complete reply lines available on ``sock``; ``[b""]`` on EOF."""
    chunk = sock.recv(1 << 16)
    if not chunk:
        return [b""]
    buf = buffers[sock.fileno()]
    buf += chunk
    *lines, rest = bytes(buf).split(b"\n")
    buffers[sock.fileno()] = bytearray(rest)
    return lines


def closed_loop(
    host: str,
    port: int,
    lines: Sequence[bytes],
    *,
    connections: int,
    seconds: float = math.inf,
    requests: Optional[int] = None,
) -> Dict:
    """``connections`` clients, one request in flight each, for ``seconds``
    or until ``requests`` requests have been sent, whichever comes first."""
    limit = requests if requests is not None else math.inf
    conns = _connect(host, port, connections)
    sel = selectors.SelectSelector()
    buffers = {s.fileno(): bytearray() for s in conns}
    sent_at: Dict[int, float] = {}
    latencies: List[float] = []
    errors = 0
    issued = 0
    try:
        start = time.perf_counter()
        deadline = start + seconds
        for sock in conns:
            sel.register(sock, selectors.EVENT_READ)
            sent_at[sock.fileno()] = time.perf_counter()
            sock.sendall(lines[issued % len(lines)])
            issued += 1
        while sent_at:
            events = sel.select(timeout=10.0)
            if not events:
                errors += len(sent_at)
                break
            for key, _ in events:
                sock = key.fileobj
                fd = sock.fileno()
                for line in _read_lines(sock, buffers):
                    now = time.perf_counter()
                    if line.startswith(_OK):
                        latencies.append((now - sent_at.pop(fd)) * 1e3)
                    else:
                        sent_at.pop(fd, None)
                        errors += 1
                        if not line:
                            sel.unregister(sock)
                            break
                    if now < deadline and issued < limit:
                        sent_at[fd] = time.perf_counter()
                        sock.sendall(lines[issued % len(lines)])
                        issued += 1
        duration = time.perf_counter() - start
    finally:
        sel.close()
        _close(conns)
    return {
        "loop": "closed",
        "connections": connections,
        "attempted": issued,
        "errors": errors,
        "duration_s": duration,
        "latencies_ms": latencies,
    }


def open_loop(
    host: str,
    port: int,
    lines: Sequence[bytes],
    *,
    connections: int,
    rate: float,
    seconds: float,
    drain_seconds: float = 10.0,
) -> Dict:
    """Requests due every ``1/rate`` s for ``seconds``, round-robin over connections."""
    conns = _connect(host, port, connections)
    sel = selectors.SelectSelector()
    buffers = {s.fileno(): bytearray() for s in conns}
    pending: Dict[int, Deque[float]] = {s.fileno(): deque() for s in conns}
    latencies: List[float] = []
    lateness: List[float] = []
    errors = 0
    n_due = int(rate * seconds)
    issued = 0
    try:
        for sock in conns:
            sel.register(sock, selectors.EVENT_READ)
        start = time.perf_counter()
        interval = 1.0 / rate
        drain_deadline = start + seconds + drain_seconds
        while True:
            now = time.perf_counter()
            while issued < n_due and start + issued * interval <= now:
                due = start + issued * interval
                sock = conns[issued % connections]
                sock.sendall(lines[issued % len(lines)])
                lateness.append((time.perf_counter() - due) * 1e3)
                pending[sock.fileno()].append(due)
                issued += 1
            outstanding = sum(len(q) for q in pending.values())
            if issued >= n_due and not outstanding:
                break
            if issued >= n_due:
                timeout = drain_deadline - now
                if timeout <= 0:
                    errors += outstanding
                    break
            else:
                timeout = max(0.0, start + issued * interval - now)
            for key, _ in sel.select(timeout=timeout):
                sock = key.fileobj
                queue = pending[sock.fileno()]
                for line in _read_lines(sock, buffers):
                    now = time.perf_counter()
                    if not line:
                        errors += len(queue)
                        queue.clear()
                        sel.unregister(sock)
                        break
                    due = queue.popleft()
                    if line.startswith(_OK):
                        latencies.append((now - due) * 1e3)
                    else:
                        errors += 1
        duration = time.perf_counter() - start
    finally:
        sel.close()
        _close(conns)
    return {
        "loop": "open",
        "connections": connections,
        "rate_per_s": rate,
        "attempted": issued,
        "errors": errors,
        "duration_s": duration,
        "latencies_ms": latencies,
        "lateness_ms": lateness,
    }


def exchange(host: str, port: int, lines: Sequence[bytes]) -> List[bytes]:
    """Send ``lines`` one at a time on one connection; return the raw replies."""
    (sock,) = _connect(host, port, 1)
    replies: List[bytes] = []
    buffers = {sock.fileno(): bytearray()}
    try:
        for line in lines:
            sock.sendall(line)
            got: List[bytes] = []
            while not got:
                got = _read_lines(sock, buffers)
            replies.extend(got)
            if got == [b""]:
                break
    finally:
        _close([sock])
    return replies


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of an unsorted sequence."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
