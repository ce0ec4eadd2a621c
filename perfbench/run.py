"""The repository benchmark: what a batch user, an online bidder and a
researcher wait for, measured from outside the program.

Run from the repository root::

    python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 25 --trace 0

Each workload drives one user path (see ``BENCHMARK.json`` for why) and
reports the same end-to-end metrics for it:

* ``setup_s``     — launch of the workload's program until it can take its
                    first call or request; the median of several launches;
* ``peak_rss_mb`` — the largest peak resident memory of those launches;
* ``ok_ops``      — the share of operations (calls, requests and output
                    checks) that succeeded;
* ``op_ms``       — the median time of the workload's short operation;
* ``job_s``       — the median time of the workload's long job.

The operation and the job of each workload:

* ``cli_batch``    — op: a cold ``repro-bid bid <CSV> --strategy all``
                     process; job: a ``repro-bid experiment all --out``
                     process.  Set-up: ``import repro.cli`` in a new process.
* ``serve_ingest`` — ``repro-bid serve`` with the iid ingest source
                     rebuilding tables a few times a second, driven over TCP
                     by a closed loop of 2 clients; op: one request; job:
                     answering a block of ``BLOCK_REQUESTS`` requests.
                     Set-up: daemon launch until it listens.
* ``sweep_fanout`` — a long-lived library worker (``lib.py worker``); job:
                     one pass of ``run_sweep`` serial / process / resilient
                     at a short-trace and a long-trace shape plus
                     ``run_plan_grid``; op: one serial short-shape
                     ``run_sweep`` call.  Set-up: library import.

Operations, jobs, set-up launches and a reference task that runs none of
the program (``calib.py``) are interleaved over the whole run.  The
machine this runs on changes speed in phases lasting minutes, up to 2x,
so the timings are reported scaled by ``nominal / measured`` time of the
reference (``REFERENCE_NOMINAL_S``): op_ms and job_s by the workload's own
reference, setup_s by the cold-import one.  They read as the times on
this machine in its usual phase; a program change moves them and a
machine phase largely does not.  The raw medians are printed above the
result line, and raw samples and the load shape go to
``.perfbench_work/samples.json``.

``--trace 0`` prints the end-to-end metrics with tracing off.  ``--trace 1``
runs the traced pass instead, over every layer whatever the workload:
spans around each call into a layer, the per-layer metrics, the tracing
overhead, and the span tree with self times dumped to
``.perfbench_work/spans.json``.  Its serve part runs both load shapes: the
closed loop (2 clients) and an open loop at a fixed rate, timed from each
request's due time, with the generator's lateness.

Output checks (each counts as an operation; a failure makes the run exit 1):
``bid`` stdout against in-process ``BiddingClient.decide``; the masked
``experiment all`` report against a stored digest; on-grid serve replies
bitwise against ``BiddingClient.respond`` (on a daemon serving its
CSV-built tables); every ``run_sweep`` path bitwise against the serial
report; ``run_plan_grid`` against the ``kernel="scalar"`` oracle on a
subsample.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("cli_batch", "serve_ingest", "sweep_fanout")

#: The REPRO_* settings every program process runs with: the registered
#: defaults, written out so an inherited environment cannot change them.
#: REPRO_SWEEP_KERNEL is removed, so the kernel tier is the program's default.
PINNED_ENV = {
    "REPRO_SERVE_TABLE_GRID": "32x8",
    "REPRO_SERVE_CACHE_SIZE": "4096",
    "REPRO_SERVE_STALE_SLOTS": "288",
    "REPRO_DIST_CACHE_SIZE": "64",
    "REPRO_SCHED_STRAGGLER_FACTOR": "3.0",
    "REPRO_SCHED_STRAGGLER_MIN_SECONDS": "1.0",
    "REPRO_SCHED_HEARTBEAT_SECONDS": "0.5",
    "REPRO_SCHED_MAX_SHARD_FAILURES": "3",
    "PYTHONHASHSEED": "0",
}

#: Serve load shape.  Ingest pulls one iid slot every INGEST_INTERVAL s and
#: rebuilds every REBUILD_EVERY slots, i.e. a few table generations a second.
INGEST_INTERVAL = "0.02"
REBUILD_EVERY = "12"
CLIENTS = 2
#: Requests in one serve job: a block answered to the closed-loop clients.
BLOCK_REQUESTS = 4000
#: Traced pass only: open-loop rate, fixed below the closed-loop capacity
#: with ingest on, and the seconds of each loop.
OPEN_RATE = 2000.0
CLOSED_SECONDS = 2.0
OPEN_SECONDS = 2.5
#: Scheduling priority of this process while it generates load.
LOADGEN_NICE = -10
#: Set-up launches per run; the median is reported.
SETUP_SAMPLES = 5
#: Nominal seconds of each reference task in ``calib.py``.  Timings are
#: reported scaled to a machine on which the reference takes this long:
#: op_ms and job_s by the workload's own reference, setup_s by ``cli``.
REFERENCE_NOMINAL_S = {"cli": 1.3, "echo": 0.16, "sweep": 0.18}
WORKLOAD_REFERENCE = {"cli_batch": "cli", "serve_ingest": "echo", "sweep_fanout": "sweep"}

#: Wall-clock cap for the whole run, which must end within 180 s.
RUN_CAP_S = 170.0

_BID_LINE = re.compile(
    r"^(\S+)\s+bid=\$([\d.]+)/h\s+expected cost=\$([\d.]+)\s+"
    r"expected T=([\d.]+)h\s+F\(p\)=([\d.]+)$"
)
_REGENERATED = re.compile(rb"^_regenerated in [0-9.]+s_$", re.MULTILINE)

METRIC_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_ops": "share",
                "op_ms": "ms", "job_s": "s"}


def raised_priority() -> None:
    """Run the load generator ahead of the daemon's threads on the same CPUs,
    so that its own scheduling delays are not charged to the daemon.  Where
    the benchmark may not raise priority it runs at the normal one."""
    try:
        os.setpriority(os.PRIO_PROCESS, 0, LOADGEN_NICE)
    except PermissionError:
        pass


class BenchError(Exception):
    """The benchmark cannot run here (a program process failed or hung)."""


def masked_report_digest(text: bytes) -> str:
    return hashlib.sha256(_REGENERATED.sub(b"_regenerated_", text)).hexdigest()


def parse_bid(stdout: str) -> Dict:
    parsed = {}
    for line in stdout.splitlines():
        match = _BID_LINE.match(line)
        if match:
            name, price, cost, t, fp = match.groups()
            parsed[name] = {"bid": price, "expected cost": cost, "expected T": t, "F(p)": fp}
    return parsed


class Child:
    """One launched process, reaped with ``wait4`` for its peak RSS."""

    def __init__(self, cmd: List[str], *, env: Dict[str, str], cwd: Path,
                 stderr_path: Path, deadline: float, stdin=subprocess.DEVNULL):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.started = time.perf_counter()
        self.deadline = deadline
        self.proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                     stderr=self._stderr, stdin=stdin)
        self.maxrss_mb = 0.0
        # A child still running at the run deadline is killed, which also
        # unblocks any read of its stdout.
        self._watchdog = threading.Timer(max(0.0, deadline - self.started), self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def signal(self, sig: int) -> None:
        # Not Popen.send_signal: it polls first, and a poll that reaps the
        # child would lose the resource usage ``reap`` reads.
        if self.proc.returncode is None:
            os.kill(self.proc.pid, sig)

    def kill(self) -> None:
        self.signal(signal.SIGKILL)

    def readline(self) -> bytes:
        return self.proc.stdout.readline()

    def reap(self, grace: float = 20.0) -> int:
        """Wait for exit (killing it past ``grace`` or the run deadline)."""
        limit = min(time.perf_counter() + grace, self.deadline)
        try:
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > limit:
                    self.kill()
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.005)
        finally:
            self._watchdog.cancel()
            self._stderr.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.stdin:
            self.proc.stdin.close()
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-2000:]


class Server:
    """The ``repro-bid serve`` daemon under test (or, given ``cmd``, the
    reference echo server)."""

    def __init__(self, bench: "Bench", *, ingest: bool, cmd: Optional[List[str]] = None):
        cmd = cmd or [
            bench.python, "-m", "repro.cli", "serve", bench.inputs["csv"], "--port", "0",
            "--source", "iid", "--seed", str(bench.args.seed), "--rebuild-every", REBUILD_EVERY,
            # Without ingest the first pull is followed by a sleep longer
            # than the run, so generation 0 (built from the CSV) serves.
            "--interval", INGEST_INTERVAL if ingest else "100000"]
        self.child = bench.launch(cmd, env=dict(bench.env, PYTHONUNBUFFERED="1"))
        line = self.child.readline().decode()
        self.ready_s = time.perf_counter() - self.child.started
        match = re.search(r":(\d+)\s", line)
        if not match:
            self.stop()
            raise BenchError(f"serve did not start: {line!r} {self.child.stderr_tail()}")
        self.port = int(match.group(1))

    def pause(self) -> None:
        self.child.signal(signal.SIGSTOP)

    def resume(self) -> None:
        self.child.signal(signal.SIGCONT)

    def stats(self) -> Dict:
        self.resume()
        return json.loads(loadgen.exchange("127.0.0.1", self.port, [b'{"op":"stats"}\n'])[0])

    def stop(self) -> float:
        """Shut down with SIGINT; returns peak RSS in MB."""
        self.resume()
        self.child.signal(signal.SIGINT)
        self.child.reap(grace=10.0)
        return self.child.maxrss_mb


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.work = root / ".perfbench_work"
        self.size = "tiny" if args.tiny else "full"
        self.warmup = 0.1 if args.tiny else 0.5
        self.deadline = time.perf_counter() + RUN_CAP_S
        self.tracer = Tracer(enabled=bool(args.trace))
        self.python = sys.executable
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PINNED_ENV)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        self.samples: Dict[str, List[float]] = {"op_ms": [], "job_s": [], "setup_s": []}
        self.reference: Dict[str, List[float]] = {name: [] for name in REFERENCE_NOMINAL_S}
        # Sweep job seconds by shape and fan-out variant, for the record.
        self.parts: Dict[str, List[float]] = {}
        self.layers: Dict[str, Tuple] = {}
        self.rss: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.trace_overhead = 0.0
        self.inputs: Dict = {}
        self.load: Dict[str, Dict] = {
            "closed": {"loop": "closed", "clients": CLIENTS, "samples": 0, "seconds": 0.0},
            "open": {"loop": "open", "connections": CLIENTS, "rate_per_s": OPEN_RATE,
                     "samples": 0, "seconds": 0.0},
        }
        # Latencies pool over the run; percentiles are over all requests.
        self.closed_ms: List[float] = []
        self.open_ms: List[float] = []
        self.lateness: List[float] = []
        self._n_children = 0
        self._children: List[Child] = []

    # -- bookkeeping ------------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add(self, metric: str, *values: float) -> None:
        self.samples[metric].extend(values)

    # -- processes ------------------------------------------------------------------
    def launch(self, cmd: List[str], *, env: Optional[Dict[str, str]] = None,
               stdin=subprocess.DEVNULL) -> Child:
        self._n_children += 1
        child = Child(cmd, env=env or self.env, cwd=self.root, stdin=stdin,
                      stderr_path=self.work / f"stderr-{self._n_children}.txt",
                      deadline=self.deadline)
        self._children.append(child)
        return child

    def stop_all(self) -> None:
        """Kill and reap whatever is still running (error paths only)."""
        for child in self._children:
            if child.proc.returncode is None:
                child.signal(signal.SIGCONT)
                child.kill()
                child.reap(grace=5.0)

    def run(self, cmd: List[str]) -> Dict:
        """Run ``cmd`` to completion; wall time, stdout and peak RSS."""
        child = self.launch(cmd)
        out = child.proc.stdout.read()
        code = child.reap(grace=max(0.0, self.deadline - time.perf_counter()))
        wall = time.perf_counter() - child.started
        if code != 0:
            raise BenchError(f"{' '.join(cmd[1:4])} exited {code}: {child.stderr_tail()}")
        return {"wall": wall, "stdout": out.decode(), "started": child.started,
                "maxrss_mb": child.maxrss_mb}

    def lib_cmd(self, task: str) -> List[str]:
        return [self.python, str(HERE / "lib.py"), task, "--work", str(self.work),
                "--seed", str(self.args.seed), "--size", self.size]

    def lib(self, task: str) -> Dict:
        """Run a one-shot ``lib.py`` task; its spans, metrics and overhead are kept."""
        with self.tracer.span(f"lib.{task}"):
            parent = self.tracer.current()
            got = self.run(self.lib_cmd(task))
        lines = got["stdout"].strip().splitlines()
        result = json.loads(lines[-1])
        result["ready_s"] = float(lines[0].split()[1]) - got["started"]
        result["maxrss_mb"] = got["maxrss_mb"]
        self.tracer.adopt(result.pop("spans", []), parent)
        self.layers.update({k: tuple(v) for k, v in result.pop("metrics", {}).items()})
        self.trace_overhead += result.get("overhead_s", 0.0)
        return result

    def until(self, seconds: float):
        """Yield cycle numbers until ``seconds`` have passed (at least one)."""
        end = time.perf_counter() + seconds
        cycle = 0
        while cycle == 0 or time.perf_counter() < end:
            yield cycle
            cycle += 1

    # -- batch path ---------------------------------------------------------------------
    def cold_bid(self) -> None:
        cli = [self.python, "-m", "repro.cli"]
        got = self.run(cli + ["bid", self.inputs["csv"], "--strategy", "all"])
        self.rss.append(got["maxrss_mb"])
        self.add("op_ms", got["wall"] * 1e3)
        self.check(parse_bid(got["stdout"]) == self.inputs["bid"],
                   "bid stdout differs from in-process BiddingClient.decide")

    def report(self) -> None:
        cli = [self.python, "-m", "repro.cli"]
        report = self.work / "report.md"
        report.unlink(missing_ok=True)
        got = self.run(cli + ["experiment", "all", "--out", str(report)])
        self.rss.append(got["maxrss_mb"])
        self.add("job_s", got["wall"])
        expected = json.loads((HERE / "expected.json").read_text())["report_sha256"]
        self.check(masked_report_digest(report.read_bytes()) == expected,
                   "experiment all report differs from the stored digest")

    def cli_reference(self) -> None:
        self.reference["cli"].append(self.run([self.python, str(HERE / "calib.py"), "cli"])["wall"])

    def cli_setup(self) -> None:
        got = self.run([self.python, "-c", "import repro.cli"])
        self.rss.append(got["maxrss_mb"])
        self.add("setup_s", got["wall"])
        self.cli_reference()

    def measure_cli(self) -> None:
        """Cold bids (no warm-up: users pay the cold start every time),
        reports, set-up launches and the reference, interleaved."""
        for cycle in self.until(self.args.seconds):
            self.report()
            self.cold_bid()
            if cycle < SETUP_SAMPLES:
                self.cli_setup()
            else:
                self.cli_reference()
            self.cold_bid()
        while len(self.samples["setup_s"]) < SETUP_SAMPLES:
            self.cli_setup()

    def cli_importtime(self) -> None:
        with self.tracer.span("cli.importtime"):
            child = self.launch([self.python, "-X", "importtime", "-c", "import repro.cli"])
            child.proc.stdout.read()
            if child.reap() != 0:
                raise BenchError(f"import repro.cli failed: {child.stderr_tail()}")
        total = scipy = 0
        for line in child.stderr_path.read_text().splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            total += self_us
            if parts[2].strip().split(".")[0] == "scipy":
                scipy += self_us
        self.layers["cli.import_s"] = (total / 1e6, "s")
        self.layers["cli.import_scipy_s"] = (scipy / 1e6, "s")

    # -- serve path ---------------------------------------------------------------------
    def serve_setup(self, *, parity: bool) -> None:
        """A set-up sample on a daemon serving generation 0, with the on-grid
        parity check if asked."""
        with self.tracer.span("serve.parity" if parity else "serve.setup"):
            server = Server(self, ingest=False)
            try:
                self.add("setup_s", server.ready_s)
                if parity:
                    wanted = json.loads((self.work / "parity.json").read_text())
                    replies = loadgen.exchange("127.0.0.1", server.port,
                                               [p["line"].encode() for p in wanted])
            finally:
                self.rss.append(server.stop())
        self.cli_reference()
        if not parity:
            return
        for want, got in zip(wanted, replies + [b""] * len(wanted)):
            try:
                decision = json.loads(got)["decision"]
            except (ValueError, KeyError):
                decision = None
            self.check(json.dumps(decision, sort_keys=True)
                       == json.dumps(want["decision"], sort_keys=True),
                       "on-grid serve reply differs from BiddingClient.respond")

    def count_requests(self, result: Dict) -> None:
        self.attempted += result["attempted"]
        if result["errors"]:
            self.failures.append(
                f"{result['errors']} failed requests in the {result['loop']} loop")

    def measure_serve(self) -> None:
        """Blocks of closed-loop requests against the ingesting daemon, each
        followed by the same block against the reference echo server.

        While the echo server or a set-up launch runs, the daemon is held
        with SIGSTOP, so they do not load each other."""
        lines = (self.work / "requests.jsonl").read_bytes().splitlines(keepends=True)
        self.serve_setup(parity=True)
        echo = Server(self, ingest=False, cmd=[self.python, str(HERE / "calib.py"), "echo"])
        server = Server(self, ingest=True)
        self.add("setup_s", server.ready_s)
        self.cli_reference()
        block_requests = BLOCK_REQUESTS // (10 if self.args.tiny else 1)

        def block(port: int) -> Dict:
            got = loadgen.closed_loop("127.0.0.1", port, lines, connections=CLIENTS,
                                      requests=block_requests)
            self.count_requests(got)
            return got

        try:
            raised_priority()
            self.count_requests(loadgen.closed_loop("127.0.0.1", server.port, lines,
                                                    connections=CLIENTS, seconds=self.warmup))
            for cycle in self.until(self.args.seconds):
                got = block(server.port)
                self.closed_ms += got["latencies_ms"]
                self.load["closed"]["seconds"] += got["duration_s"]
                self.add("job_s", got["duration_s"])
                server.pause()
                self.reference["echo"].append(block(echo.port)["duration_s"])
                if cycle % 4 == 3 and len(self.samples["setup_s"]) < SETUP_SAMPLES:
                    self.serve_setup(parity=False)
                server.resume()
        finally:
            os.setpriority(os.PRIO_PROCESS, 0, 0)
            self.rss.append(server.stop())
            echo.stop()
        while len(self.samples["setup_s"]) < SETUP_SAMPLES:
            self.serve_setup(parity=False)
        self.add("op_ms", loadgen.percentile(self.closed_ms, 50.0))
        self.load["closed"]["samples"] = len(self.closed_ms)
        self.load["closed"]["block_requests"] = len(self.closed_ms) // len(self.samples["job_s"])

    def serve_loops(self, server: Server, lines: List[bytes]) -> None:
        """Traced pass: warm-up, the closed loop, then the open loop."""
        host, port = "127.0.0.1", server.port
        try:
            raised_priority()
            with self.tracer.span("loadgen.warmup"):
                warm = loadgen.closed_loop(host, port, lines, connections=CLIENTS,
                                           seconds=self.warmup)
            with self.tracer.span("loadgen.closed"):
                closed = loadgen.closed_loop(host, port, lines, connections=CLIENTS,
                                             seconds=CLOSED_SECONDS if not self.args.tiny
                                             else 0.3)
            with self.tracer.span("loadgen.open"):
                opened = loadgen.open_loop(host, port, lines, connections=CLIENTS,
                                           rate=OPEN_RATE, seconds=OPEN_SECONDS
                                           if not self.args.tiny else 0.3)
        finally:
            os.setpriority(os.PRIO_PROCESS, 0, 0)
        for result in (warm, closed, opened):
            self.count_requests(result)
        self.closed_ms += closed["latencies_ms"]
        self.open_ms += opened["latencies_ms"]
        self.lateness += opened["lateness_ms"]
        self.load["closed"]["seconds"] += closed["duration_s"]
        self.load["closed"]["samples"] = len(self.closed_ms)
        self.load["open"]["seconds"] += opened["duration_s"]
        self.load["open"]["samples"] = len(self.open_ms)
        self.load["open"]["late_p50_ms"] = loadgen.percentile(self.lateness, 50.0)
        self.load["open"]["late_p99_ms"] = loadgen.percentile(self.lateness, 99.0)

    # -- sweep path ---------------------------------------------------------------------
    def start_worker(self) -> Child:
        worker = self.launch(self.lib_cmd("worker"), stdin=subprocess.PIPE)
        first = worker.readline().split()
        if not first or first[0] != b"ready":
            worker.reap()
            raise BenchError(f"lib.py worker did not start: {worker.stderr_tail()}")
        self.add("setup_s", float(first[1]) - worker.started)
        return worker

    def ask(self, worker: Child, command: str) -> Dict:
        worker.proc.stdin.write(command.encode() + b"\n")
        worker.proc.stdin.flush()
        line = worker.readline()
        if not line:
            worker.reap()
            raise BenchError(f"lib.py worker died: {worker.stderr_tail()}")
        return json.loads(line)

    def sweep_setup(self) -> None:
        got = self.lib("ready")
        self.rss.append(got["maxrss_mb"])
        self.add("setup_s", got["ready_s"])
        self.cli_reference()

    def measure_sweep(self) -> None:
        """Worker rounds after a warm-up pass, with set-up launches between."""
        worker = self.start_worker()
        self.cli_reference()
        try:
            self.ask(worker, "warm")
            for cycle in self.until(self.args.seconds):
                got = self.ask(worker, "round")
                for metric, values in got["samples"].items():
                    self.add(metric, *values)
                self.reference["sweep"].append(got["reference_s"])
                for part, seconds in got["parts"].items():
                    self.parts.setdefault(part, []).append(seconds)
                self.attempted += got["attempted"]
                self.failures += got["failures"]
                if len(self.samples["setup_s"]) < SETUP_SAMPLES:
                    self.sweep_setup()
        finally:
            worker.proc.stdin.close()
            worker.proc.stdout.read()
            worker.reap()
            self.rss.append(worker.maxrss_mb)
        while len(self.samples["setup_s"]) < SETUP_SAMPLES:
            self.sweep_setup()

    # -- runs ---------------------------------------------------------------------------
    def traced(self) -> None:
        """Per-layer metrics: spans around calls into each layer, one pass each."""
        self.cli_importtime()
        self.lib("cli-layers")
        lines = (self.work / "requests.jsonl").read_bytes().splitlines(keepends=True)
        with self.tracer.span("serve"):
            server = Server(self, ingest=True)
            try:
                self.serve_loops(server, lines)
                stats = server.stats()
            finally:
                server.stop()
        self.lib("serve-layers")
        service, cache = stats["service"], stats["cache"]
        lookups = cache["memory_hits"] + cache["file_hits"] + cache["misses"] + cache["stale"]
        handle_ms = self.layers.pop("serve.service.handle_us")[0] / 1e3
        self.layers.update({
            "serve.wire_share": (1.0 - handle_ms / loadgen.percentile(self.closed_ms, 50.0),
                                 "share"),
            "serve.ingest.generations": (stats["generation"], "count"),
            "serve.cache.hit_ratio": ((cache["memory_hits"] + cache["file_hits"])
                                      / max(lookups, 1), "share"),
            "serve.cache.stale": (cache["stale"], "count"),
            "serve.cache.evictions": (cache["evictions"], "count"),
            "serve.service.degraded": (service["degraded"], "count"),
            "serve.service.errors": (service["errors"], "count"),
            "loadgen.late_p99_ms": (loadgen.percentile(self.lateness, 99.0), "ms"),
            "loadgen.closed_p99_ms": (loadgen.percentile(self.closed_ms, 99.0), "ms"),
            "loadgen.open_p99_ms": (loadgen.percentile(self.open_ms, 99.0), "ms"),
        })
        self.lib("sweep-layers")

    def execute(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir()
        # Byte-compile once, untimed: an installed package ships compiled.
        subprocess.run([self.python, "-m", "compileall", "-q", str(self.root / "src")],
                       check=True, stdout=subprocess.DEVNULL, env=self.env, cwd=self.root)
        measure = {"cli_batch": self.measure_cli, "serve_ingest": self.measure_serve,
                   "sweep_fanout": self.measure_sweep}[self.args.workload]
        try:
            with self.tracer.span(self.args.workload):
                self.inputs = self.lib("inputs")
                (self.traced if self.args.trace else measure)()
        finally:
            self.stop_all()

    # -- results ------------------------------------------------------------------------
    def scale(self, reference: str) -> float:
        """Nominal over measured time of a reference task in this run."""
        return REFERENCE_NOMINAL_S[reference] / statistics.median(self.reference[reference])

    def end_to_end(self) -> Dict[str, Tuple]:
        """``name -> (value, unit, samples)``: timings are medians of their
        samples, scaled by the reference (raw medians are in ``self.raw``)."""
        with open(self.work / "samples.json", "w") as fh:
            json.dump({"samples": self.samples, "reference": self.reference,
                       "sweep_parts": self.parts, "rss": self.rss, "load": self.load}, fh)
        out = {
            "peak_rss_mb": (max(self.rss), "MB", len(self.rss)),
            "ok_ops": (1.0 - len(self.failures) / max(self.attempted, 1), "share",
                       self.attempted),
        }
        own = WORKLOAD_REFERENCE[self.args.workload]
        self.raw = {}
        for metric, values in self.samples.items():
            n = len(self.closed_ms) if metric == "op_ms" and self.closed_ms else len(values)
            self.raw[metric] = statistics.median(values)
            factor = self.scale("cli" if metric == "setup_s" else own)
            out[metric] = (self.raw[metric] * factor, METRIC_UNITS[metric], n)
        for name, values in self.reference.items():
            if values:
                self.raw[f"reference.{name}_s"] = statistics.median(values)
        return out

    def per_layer(self) -> Dict[str, Tuple]:
        self.layers["trace.overhead_s"] = (self.trace_overhead, "s")
        with open(self.work / "spans.json", "w") as fh:
            json.dump({"tree": self.tracer.tree(), "self_s": self.tracer.self_times()},
                      fh, indent=1)
        return {k: (float(v), u, 1) for k, (v, u) in sorted(self.layers.items())}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes and one short round, for the self-check only")
    args = parser.parse_args(argv)
    # A shell starting this in the background ignores SIGINT, and children
    # would inherit that; the daemon is shut down with SIGINT.  A handled
    # signal is reset to the default in each child.  SIGTERM unwinds
    # through the cleanup that stops every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    bench = Bench(args, root)
    try:
        bench.execute()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for phase in bench.load.values():
        if phase["samples"]:
            print("  load " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                        for k, v in phase.items()))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={n}")
    for name, value in getattr(bench, "raw", {}).items():
        print(f"  raw median {name:29s} {value:14.6g}")
    for message in bench.failures:
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
