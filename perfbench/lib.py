"""Library-side half of the benchmark, run as a child process.

``python perfbench/lib.py <task> --work DIR --seed N [--size full|tiny]``
imports the program from ``src/``, prints ``ready <clock>`` once its
imports are done (the parent times launch-to-ready as set-up), runs the
task and prints one JSON object as its last stdout line.  Tasks:

* ``ready``        — import and exit (a set-up sample).
* ``inputs``       — write the seeded inputs every section shares: the
                     60-day r3.xlarge CSV, the serve request mix, and the
                     in-process answers the output checks compare with.
* ``worker``       — long-lived: on each ``round`` line from stdin, time
                     one pass of ``run_sweep`` / ``run_plan_grid`` and a few
                     single serial ``run_sweep`` calls, and check every
                     path bitwise against the serial report.
* ``cli-layers``   — traced pass over the calls ``bid`` and
                     ``experiment all`` make into each layer.
* ``serve-layers`` — traced pass over the wire codec, ``BidService.handle``
                     and table builds on the workload's own request mix.
* ``sweep-layers`` — traced pass over the sweep kernels, scheduler,
                     resilience and MapReduce grid.

Every traced pass runs twice, tracing off then on; the difference is
reported as tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from calib import sweep_reference  # noqa: E402
from spans import Tracer  # noqa: E402

INSTANCE = "r3.xlarge"
HISTORY_DAYS = 60.0
#: Requests in the serve mix; the load loops cycle through it.
N_REQUESTS = 20000
#: Requests of the mix timed one by one in the serve traced pass.
N_LAYER_OPS = 4000
#: On-grid requests checked bitwise against ``BiddingClient.respond``.
N_PARITY = 300
STRATEGIES = ("one-time", "persistent", "percentile")

#: Sweep shapes: (traces, days, bids, job hours).  Short traces are
#: dominated by per-item overhead, long ones by the kernels.
SHAPES = {
    "full": {"short": (512, 7.0, 64, 1.0), "long": (48, 70.0, 256, 24.0)},
    "tiny": {"short": (16, 2.0, 8, 1.0), "long": (4, 6.0, 16, 24.0)},
}
#: MapReduce plan grid: master bids x slave bids x runs x days.
PLAN_GRID = {"full": (6, 4, 20, 8.0), "tiny": (2, 2, 2, 2.0)}
PLAN_GRID_REPEATS = 3
#: Single serial short-shape ``run_sweep`` calls timed after each worker round.
OP_REPEATS = 6


def emit(payload: Dict) -> None:
    print(json.dumps(payload), flush=True)


def rng_for(seed: int, *stream: int):
    import numpy as np

    return np.random.default_rng((seed, *stream))


# -- inputs -----------------------------------------------------------------
def task_inputs(args) -> Dict:
    from repro.core.client import BiddingClient
    from repro.core.types import DecisionRequest, JobSpec, Strategy
    from repro.serve import build_requests, default_grid
    from repro.serve.protocol import decision_to_wire, encode_line, request_to_wire
    from repro.traces import io as trace_io
    from repro.traces.catalog import get_instance_type
    from repro.traces.generator import generate_equilibrium_history

    work = Path(args.work)
    itype = get_instance_type(INSTANCE)
    history = generate_equilibrium_history(
        itype, days=HISTORY_DAYS, rng=rng_for(args.seed, 0)
    )
    csv = work / "history.csv"
    trace_io.write_csv(history, csv)
    # Everything below reads the CSV back, exactly as the CLI and server do.
    history = trace_io.read_csv(csv)
    client = BiddingClient(history, ondemand_price=itype.on_demand_price)

    job = JobSpec(
        execution_time=1.0, recovery_time=30.0 / 3600.0, slot_length=history.slot_length
    )
    bid = {}
    for name in STRATEGIES:
        decision = client.decide(DecisionRequest(job=job, strategy=Strategy(name))).decision
        bid[name] = {
            "bid": f"{decision.price:.4f}",
            "expected cost": f"{decision.expected_cost:.4f}",
            "expected T": f"{decision.expected_completion_time:.2f}",
            "F(p)": f"{decision.acceptance_probability:.3f}",
        }

    grid = default_grid(slot_length=history.slot_length)
    requests = build_requests(
        N_REQUESTS,
        grid=grid,
        slot_length=history.slot_length,
        rng=rng_for(args.seed, 1),
        on_grid_fraction=0.5,
    )
    with open(work / "requests.jsonl", "wb") as fh:
        for request in requests:
            fh.write(encode_line(request_to_wire(request)))
    ts_axis, tr_axis = set(grid.execution_times), set(grid.recovery_times)
    parity = []
    for request in requests:
        if request.job.execution_time in ts_axis and request.job.recovery_time in tr_axis:
            expected = decision_to_wire(client.respond(request).decision)
            parity.append({"line": encode_line(request_to_wire(request)).decode(),
                           "decision": expected})
            if len(parity) == N_PARITY:
                break
    with open(work / "parity.json", "w") as fh:
        json.dump(parity, fh)
    return {"csv": str(csv), "bid": bid, "n_requests": len(requests),
            "n_parity": len(parity)}


# -- sweep --------------------------------------------------------------------
_FIELDS = ("completed", "cost", "completion_time", "running_time", "idle_time",
           "recovery_time_used", "interruptions")


def same_bits(a, b) -> bool:
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in _FIELDS)


class SweepInputs:
    def __init__(self, seed: int, size: str):
        import numpy as np
        from repro.core.types import (
            BidDecision, BidKind, JobSpec, MapReduceJobSpec, MapReducePlan,
        )
        from repro.experiments.common import TABLE4_SETTINGS
        from repro.traces.catalog import get_instance_type
        from repro.traces.generator import generate_equilibrium_history

        itype = get_instance_type(INSTANCE)
        self.shapes = {}
        for idx, (label, (n, days, n_bids, hours)) in enumerate(SHAPES[size].items()):
            rng = rng_for(seed, 10 + idx)
            traces = [generate_equilibrium_history(itype, days=days, rng=rng)
                      for _ in range(n)]
            floor = min(float(t.prices.min()) for t in traces)
            bids = np.linspace(floor, itype.on_demand_price, n_bids)
            job = JobSpec(execution_time=hours, recovery_time=30.0 / 3600.0,
                          slot_length=traces[0].slot_length)
            self.shapes[label] = (traces, bids, job)

        # One plan grid per Table 4 client setting, each over its own
        # master/slave trace pairs, as Figure 7 evaluates them.
        n_mb, n_sb, n_runs, days = PLAN_GRID[size]
        self.grids = []
        for idx, (master_name, slave_name) in enumerate(TABLE4_SETTINGS):
            master_t, slave_t = get_instance_type(master_name), get_instance_type(slave_name)
            rng = rng_for(seed, 20 + idx)
            masters = [generate_equilibrium_history(master_t, days=days, rng=rng)
                       for _ in range(n_runs)]
            slaves = [generate_equilibrium_history(slave_t, days=days, rng=rng)
                      for _ in range(n_runs)]
            mr_job = MapReduceJobSpec(execution_time=1.2, num_slaves=4,
                                      recovery_time=30.0 / 3600.0,
                                      slot_length=masters[0].slot_length)
            plans = [
                MapReducePlan(
                    job=mr_job,
                    master_bid=BidDecision(price=float(mb), kind=BidKind.ONE_TIME,
                                           expected_cost=0.0),
                    slave_bid=BidDecision(price=float(sb), kind=BidKind.PERSISTENT,
                                          expected_cost=0.0),
                    required_master_time=1.0,
                    min_slaves=1,
                )
                for mb in np.linspace(float(masters[0].prices.min()),
                                      master_t.on_demand_price, n_mb)
                for sb in np.linspace(float(slaves[0].prices.min()),
                                      slave_t.on_demand_price, n_sb)
            ]
            self.grids.append((plans, masters, slaves))


#: The fan-out variants of one sweep; "serial" is the reference.
VARIANTS = {
    "serial": {},
    "process": {"executor": "process", "max_workers": 2},
    "resilient": {"retries": 1, "strict": False},
}


def sweep_round(inputs: SweepInputs, tracer: Tracer, variants=VARIANTS):
    """One timed pass over every shape x strategy x variant plus the plan grids.

    Returns ``(times, reports, grids)``; ``times[(shape, strategy, variant)]``
    is wall seconds, ``times["plan_grid"]`` the plan grids'.
    """
    from repro.core.types import Strategy
    from repro.mapreduce.grid import run_plan_grid
    from repro.sweep import run_sweep

    times: Dict = {}
    reports: Dict = {}
    for shape, (traces, bids, job) in inputs.shapes.items():
        for strategy in (Strategy.PERSISTENT, Strategy.ONE_TIME):
            for variant in variants:
                with tracer.span(f"sweep.run_sweep.{variant}"):
                    start = time.perf_counter()
                    report = run_sweep(traces, bids, job, strategy=strategy,
                                       **VARIANTS[variant])
                    times[(shape, strategy.value, variant)] = time.perf_counter() - start
                reports[(shape, strategy.value, variant)] = report
    # The plan grids take milliseconds, so each pass times them a few times.
    times["plan_grid"] = []
    for _ in range(PLAN_GRID_REPEATS):
        grids = []
        start = time.perf_counter()
        for plans, masters, slaves in inputs.grids:
            with tracer.span("mapreduce.run_plan_grid"):
                grids.append(run_plan_grid(plans, masters, slaves))
        times["plan_grid"].append(time.perf_counter() - start)
    return times, reports, grids


def sweep_checks(inputs: SweepInputs, reports, grids, reference) -> List[str]:
    """Failed-check messages: every path vs the serial report, grid vs scalar."""
    import numpy as np
    from repro.mapreduce.grid import run_plan_grid

    failures = []
    for key, report in reports.items():
        shape, strategy, variant = key
        ref = reference[(shape, strategy, "serial")]
        if report.failures or not same_bits(report, ref):
            failures.append(f"run_sweep {shape}/{strategy}/{variant} differs from serial")
    # Scalar oracle on a subsample: per setting, the first and last plan
    # over the first two runs.
    for (plans, masters, slaves), grid in zip(inputs.grids, grids):
        picks = [0, len(plans) - 1]
        runs = min(2, len(masters))
        oracle = run_plan_grid([plans[i] for i in picks], masters[:runs], slaves[:runs],
                               kernel="scalar")
        fast = grid.to_dict()
        for field, values in oracle.to_dict().items():
            mine = np.ascontiguousarray(np.asarray(fast[field])[picks][:, :runs])
            if np.asarray(values).tobytes() != mine.tobytes():
                failures.append(f"run_plan_grid {field} differs from the scalar oracle")
    return failures


def task_worker(args) -> Dict:
    """Serve sweep rounds on request: one JSON line per stdin command.

    ``warm`` builds the inputs and runs a serial warm-up pass (first-call
    costs are not what a researcher running many sweeps waits on; the pass
    is also the reference every timed pass is checked against).  ``round``
    times one pass over every variant (a ``job_s`` sample) and then
    ``OP_REPEATS`` single serial ``run_sweep`` calls on the short shape
    (``op_ms`` samples) and the reference pass (``calib.sweep_reference``),
    and checks every result.  EOF ends the worker.
    """
    from repro.core.types import Strategy
    from repro.sweep import run_sweep

    off = Tracer(enabled=False)
    inputs = reference = None
    for command in sys.stdin:
        command = command.strip()
        if command == "warm":
            inputs = SweepInputs(args.seed, args.size)
            _, reference, _ = sweep_round(inputs, off, variants=("serial",))
            emit({"warm": True})
            continue
        if command != "round" or inputs is None:
            raise SystemExit(f"unexpected command {command!r}")
        start = time.perf_counter()
        times, reports, grids = sweep_round(inputs, off)
        job_s = time.perf_counter() - start
        parts = {"plan_grid": sum(times.pop("plan_grid"))}
        for (shape, _, variant), seconds in times.items():
            parts[f"{shape}.{variant}"] = parts.get(f"{shape}.{variant}", 0.0) + seconds
        failures = sweep_checks(inputs, reports, grids, reference)
        traces, bids, job = inputs.shapes["short"]
        ref = reference[("short", Strategy.PERSISTENT.value, "serial")]
        op_ms = []
        for _ in range(OP_REPEATS):
            start = time.perf_counter()
            report = run_sweep(traces, bids, job, strategy=Strategy.PERSISTENT)
            op_ms.append((time.perf_counter() - start) * 1e3)
            if not same_bits(report, ref):
                failures.append("run_sweep short/persistent/serial differs from the warm-up")
        emit({
            "samples": {"job_s": [job_s], "op_ms": op_ms},
            "parts": parts,
            "reference_s": sweep_reference(),
            # Each call is an operation, and so is each of the two checks.
            "attempted": len(reports) + len(grids) * PLAN_GRID_REPEATS + 2 + OP_REPEATS,
            "failures": failures,
        })
    return {}


def task_sweep_layers(args) -> Dict:
    import numpy as np
    from repro.core.types import Strategy
    from repro.sweep.kernels import onetime_sweep_kernel, persistent_sweep_kernel

    inputs = SweepInputs(args.seed, args.size)

    def layer_pass(tracer: Tracer) -> Dict:
        times, reports, _ = sweep_round(inputs, tracer)
        traces, bids, job = inputs.shapes["long"]
        prices = np.vstack([t.prices for t in traces])
        n_valid = np.full(len(traces), prices.shape[1], dtype=np.int64)
        kernel_s = {}
        with tracer.span("sweep.kernels.persistent_sweep_kernel"):
            start = time.perf_counter()
            persistent_sweep_kernel(prices, bids, work=job.execution_time,
                                    recovery_time=job.recovery_time,
                                    slot_length=job.slot_length, n_valid=n_valid)
            kernel_s["persistent"] = time.perf_counter() - start
        with tracer.span("sweep.kernels.onetime_sweep_kernel"):
            start = time.perf_counter()
            onetime_sweep_kernel(prices, bids, work=job.execution_time,
                                 slot_length=job.slot_length, n_valid=n_valid)
            kernel_s["onetime"] = time.perf_counter() - start
        return {"times": times, "reports": reports, "kernel_s": kernel_s,
                "prices_shape": prices.shape, "n_bids": len(bids)}

    layer_pass(Tracer(enabled=False))  # warm-up, so both timed passes start warm
    start = time.perf_counter()
    layer_pass(Tracer(enabled=False))
    untraced = time.perf_counter() - start
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("sweep_fanout.layers"):
        got = layer_pass(tracer)
    traced = time.perf_counter() - start

    times, reports, kernel_s = got["times"], got["reports"], got["kernel_s"]
    strategies = (Strategy.PERSISTENT.value, Strategy.ONE_TIME.value)
    long_serial = sum(times[("long", s, "serial")] for s in strategies)
    n_traces, n_slots = got["prices_shape"]
    sched = {"n_shards": 0, "dispatched": 0, "speculated": 0, "respawned": 0}
    for key, report in reports.items():
        if key[2] == "process" and report.scheduler is not None:
            stats = report.scheduler
            sched["n_shards"] += stats.n_shards
            sched["dispatched"] += stats.dispatched
            sched["speculated"] += stats.speculated
            sched["respawned"] += stats.workers_respawned

    def variant_total(shape: str, variant: str) -> float:
        return sum(times[(shape, s, variant)] for s in strategies)

    metrics = {
        "sweep.kernel_s.persistent": (kernel_s["persistent"], "s"),
        "sweep.kernel_s.onetime": (kernel_s["onetime"], "s"),
        "sweep.kernel_share": (sum(reports[("long", s, "serial")].counters.kernel_seconds
                                   for s in strategies) / long_serial, "share"),
        "sweep.events_processed": (sum(reports[("long", s, "serial")].counters.slots_simulated
                                       for s in strategies), "count"),
        "sweep.lane_slots": (2 * n_traces * n_slots * got["n_bids"], "count"),
        "scheduler.n_shards": (sched["n_shards"], "count"),
        "scheduler.dispatched": (sched["dispatched"], "count"),
        "scheduler.speculated": (sched["speculated"], "count"),
        "scheduler.respawned": (sched["respawned"], "count"),
        "scheduler.overhead_s": (sum(variant_total(shape, "process") - variant_total(shape, "serial")
                                     for shape in inputs.shapes), "s"),
        "resilience.overhead_ratio.short": (variant_total("short", "resilient")
                                            / variant_total("short", "serial"), "ratio"),
        "resilience.overhead_ratio.long": (variant_total("long", "resilient")
                                           / variant_total("long", "serial"), "ratio"),
        "mapreduce.grid_s": (statistics.median(times["plan_grid"]), "s"),
    }
    return {"metrics": metrics, "spans": tracer.spans, "overhead_s": traced - untraced}


# -- cli layers -------------------------------------------------------------------
def task_cli_layers(args) -> Dict:
    from repro.core.client import BiddingClient
    from repro.core.distcache import clear_distribution_cache
    from repro.core.types import DecisionRequest, JobSpec, Strategy
    from repro.experiments import (
        FULL_CONFIG, ablations, fig3_price_pdf, fig6_persistent_vs_onetime,
        fig7_mapreduce_costs, queue_stability, table4_mapreduce_plans,
    )
    from repro.experiments.common import history_and_future
    from repro.provider.fitting import fit_both_families
    from repro.traces import io as trace_io
    from repro.traces.catalog import FIG3_TYPES, get_instance_type

    csv = Path(args.work) / "history.csv"
    ondemand = get_instance_type(INSTANCE).on_demand_price
    config = FULL_CONFIG
    fig3_panels = []
    for name in FIG3_TYPES:
        itype = get_instance_type(name)
        fig3_panels.append((history_and_future(itype, config, 3)[0], itype))

    def layer_pass(tracer: Tracer) -> Dict[str, float]:
        out: Dict[str, float] = {}

        def timed(metric: str, span: str, fn):
            with tracer.span(span):
                start = time.perf_counter()
                result = fn()
                out[metric] = time.perf_counter() - start
            return result

        clear_distribution_cache()
        history = timed("traces.read_csv_s", "traces.io.read_csv",
                        lambda: trace_io.read_csv(csv))
        client = timed("core.distribution_fit_s", "core.BiddingClient",
                       lambda: BiddingClient(history, ondemand_price=ondemand))
        job = JobSpec(execution_time=1.0, recovery_time=30.0 / 3600.0,
                      slot_length=history.slot_length)
        for name in STRATEGIES:
            request = DecisionRequest(job=job, strategy=Strategy(name))
            timed(f"core.decide_s.{name}", f"core.BiddingClient.decide.{name}",
                  lambda: client.decide(request))
        for label, module in (("fig3", fig3_price_pdf), ("fig6", fig6_persistent_vs_onetime),
                              ("table4", table4_mapreduce_plans), ("fig7", fig7_mapreduce_costs),
                              ("queue_stability", queue_stability)):
            timed(f"experiments.{label}_s", f"experiments.{label}.run",
                  lambda: module.run(config))
        for label, fn in (("adaptive_rebidding", ablations.adaptive_rebidding),
                          ("fleet_allocation", ablations.fleet_allocation),
                          ("history_length", ablations.history_length_sensitivity)):
            timed(f"experiments.ablation.{label}_s", f"experiments.ablations.{fn.__name__}",
                  lambda: fn(config))

        def fits():
            for hist, itype in fig3_panels:
                for jacobian in (False, True):
                    fit_both_families(hist.prices, itype.on_demand_price,
                                      theta=itype.market.theta, jacobian=jacobian)

        timed("provider.fit_s", "provider.fitting.fit_both_families", fits)
        return out

    layer_pass(Tracer(enabled=False))  # warm-up, so both timed passes start warm
    start = time.perf_counter()
    layer_pass(Tracer(enabled=False))
    untraced = time.perf_counter() - start
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("cli_batch.layers"):
        out = layer_pass(tracer)
    traced = time.perf_counter() - start
    return {"metrics": {k: (v, "s") for k, v in out.items()}, "spans": tracer.spans,
            "overhead_s": traced - untraced}


# -- serve layers -------------------------------------------------------------------
def task_serve_layers(args) -> Dict:
    import numpy as np
    from repro.core.distcache import cached_distribution
    from repro.market.price_sources import IIDPriceSource
    from repro.serve import BidService, DecisionCache, MarketState, default_grid
    from repro.serve.protocol import (
        decode_line, encode_line, request_from_wire, response_to_wire,
    )
    from repro.traces import io as trace_io
    from repro.traces.catalog import get_instance_type

    work = Path(args.work)
    history = trace_io.read_csv(work / "history.csv")
    with open(work / "requests.jsonl", "rb") as fh:
        lines = fh.read().splitlines(keepends=True)[:N_LAYER_OPS]
    ondemand = get_instance_type(INSTANCE).on_demand_price

    def layer_pass(tracer: Tracer) -> Dict[str, float]:
        # The same construction as the daemon's, minus the socket.
        state = MarketState(
            IIDPriceSource(cached_distribution(history), np.random.default_rng(args.seed)),
            initial_history=history, ondemand_price=ondemand,
            grid=default_grid(slot_length=history.slot_length),
        )
        service = BidService(state, cache=DecisionCache())
        decode, encode, hit, miss = [], [], [], []
        clock = time.perf_counter
        with tracer.span("serve.requests"):
            for line in lines:
                t0 = clock()
                request = request_from_wire(decode_line(line))
                t1 = clock()
                response = service.handle(request)
                t2 = clock()
                encode_line(response_to_wire(response))
                t3 = clock()
                decode.append(t1 - t0)
                (hit if response.cache_tier == "memory" else miss).append(t2 - t1)
                encode.append(t3 - t2)
        builds = []
        for _ in range(3):
            with tracer.span("serve.MarketState.build_snapshot"):
                t0 = clock()
                state.build_snapshot()
                builds.append(clock() - t0)
        us = 1e6
        return {
            "serve.protocol.decode_us": statistics.median(decode) * us,
            "serve.protocol.encode_us": statistics.median(encode) * us,
            "serve.service.handle_hit_us": statistics.median(hit) * us,
            "serve.service.handle_miss_us": statistics.median(miss) * us,
            "serve.service.handle_us": statistics.median(hit + miss) * us,
            "serve.tables.build_s": statistics.median(builds),
        }

    layer_pass(Tracer(enabled=False))  # warm-up, so both timed passes start warm
    start = time.perf_counter()
    layer_pass(Tracer(enabled=False))
    untraced = time.perf_counter() - start
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("serve_ingest.layers"):
        out = layer_pass(tracer)
    traced = time.perf_counter() - start
    units = {k: ("s" if k.endswith("_s") else "us") for k in out}
    return {"metrics": {k: (v, units[k]) for k, v in out.items()}, "spans": tracer.spans,
            "overhead_s": traced - untraced}


def task_ready(args) -> Dict:
    return {}


TASKS = {
    "ready": task_ready,
    "inputs": task_inputs,
    "worker": task_worker,
    "sweep-layers": task_sweep_layers,
    "cli-layers": task_cli_layers,
    "serve-layers": task_serve_layers,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SHAPES), default="full")
    args = parser.parse_args()
    # The imports a library user pays before the first call.
    import repro.mapreduce.grid  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sweep  # noqa: F401
    import repro.traces.generator  # noqa: F401

    # perf_counter is the system-wide monotonic clock, so the parent can
    # subtract its own launch time from this stamp.
    print(f"ready {time.perf_counter()!r}", flush=True)
    emit(TASKS[args.task](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
