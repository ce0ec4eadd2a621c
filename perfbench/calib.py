"""Reference tasks that run none of the program, timed beside it.

The shared machine the benchmark runs on changes speed in phases that
last minutes: the same run can take up to twice as long in a slow phase,
and process start-up, loopback TCP and NumPy slow down by different
factors.  Each workload therefore times a reference task shaped like its
own work, interleaved with it in the same run, and reports its timings
scaled by ``nominal / reference`` (see ``run.py``).  The reference code is
fixed, so a change to the program moves the scaled figures and a change of
machine phase does not.

* ``python perfbench/calib.py cli``  — a cold process that imports the
  program's third-party dependencies and does a little mixed compute:
  the shape of a cold ``repro-bid`` command.
* ``python perfbench/calib.py echo`` — an asyncio line server that parses
  each JSON request line and answers it: the shape of ``repro-bid serve``
  without its bidding work.  It prints ``listening on 127.0.0.1:<port>``
  and runs until SIGINT.
* :func:`sweep_reference` — in-process NumPy passes, many small NumPy
  calls and a Python loop: the shape of a ``run_sweep`` pass.
"""

from __future__ import annotations

import sys
import time


def _mixed_compute(scale: int) -> float:
    """Large NumPy passes, many small NumPy calls and a pure-Python loop."""
    import numpy as np

    rng = np.random.default_rng(0)
    values = rng.random(100_000 * scale)
    total = 0.0
    for _ in range(10):
        total += float(np.cumsum(np.sort(values))[-1])
    small = values[:64]
    for _ in range(2_000 * scale):
        total += float(np.minimum(small, 0.5).sum())
    acc = 0
    for i in range(100_000 * scale):
        acc += i * i
    return total + acc


def cli_reference() -> None:
    import numpy  # noqa: F401
    from scipy import integrate, optimize, stats  # noqa: F401

    _mixed_compute(1)


def sweep_reference() -> float:
    """Seconds for one fixed in-process pass shaped like a sweep pass, which
    is mostly single-threaded per-trace work."""
    start = time.perf_counter()
    _mixed_compute(6)
    return time.perf_counter() - start


def echo_server() -> None:
    import asyncio
    import json

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while line := await reader.readline():
                request = json.loads(line)
                writer.write(json.dumps({"ok": True, "echo": request},
                                        separators=(",", ":")).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()

    async def main() -> None:
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"listening on 127.0.0.1:{port} ", flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    {"cli": cli_reference, "echo": echo_server}[sys.argv[1]]()
