"""The batched backtest engine: grids of bids × stacks of traces.

:func:`run_sweep` is the front door.  It normalizes heterogeneous trace
inputs (histories, arrays, ragged lengths, per-trace start slots) into a
padded price matrix, runs the slot-batched kernels in
:mod:`repro.sweep.kernels` over row shards through the shard driver
(:mod:`repro.sweep.shards`) — serially, on threads or on the process
pool — and assembles a :class:`~repro.sweep.report.SweepReport` whose
cells are bitwise identical to the scalar :mod:`repro.market.fastpath`
oracle.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..constants import SWEEP_KERNEL, EnvVarError
from ..core.types import JobSpec, Strategy, normalize_strategy
from ..errors import MarketError
from . import cache as _cache
from . import compiled as _compiled
from . import shards
from .kernels import (
    onetime_sweep_kernel,
    onetime_sweep_kernel_compiled,
    onetime_sweep_kernel_reference,
    persistent_sweep_kernel,
    persistent_sweep_kernel_compiled,
    persistent_sweep_kernel_reference,
)
from .report import SweepCounters, SweepReport
from .shm import SharedPriceStack, open_stack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.execution import SweepJournal
    from ..resilience.faults import FaultInjector, WorkerFaults

__all__ = ["run_sweep"]

#: Result keys copied from a kernel dict into the report, in field order.
_FIELDS = (
    "completed",
    "cost",
    "completion_time",
    "running_time",
    "idle_time",
    "recovery_time_used",
    "interruptions",
)


def _trace_prices(trace: object) -> np.ndarray:
    """Extract a 1-D float price array from a history or array-like."""
    prices = np.asarray(getattr(trace, "prices", trace), dtype=float)
    if prices.ndim != 1 or prices.size == 0:
        raise MarketError("each trace must be a non-empty 1-D price array")
    return prices


def _as_trace_list(traces: Union[object, Sequence[object]]) -> List[object]:
    """Normalize the heterogeneous ``traces`` argument to a list."""
    if hasattr(traces, "prices") or (
        isinstance(traces, np.ndarray) and traces.ndim == 1
    ):
        traces = [traces]
    seq = list(traces)
    if not seq:
        raise MarketError("need at least one trace to sweep")
    return seq


def _stack_traces(
    traces: Sequence[object],
    start_slots: Union[int, Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Slice, pad and stack traces into ``(matrix, n_valid)``.

    Ragged rows (different lengths or start slots) are padded with
    ``+inf`` — never accepted by any finite bid — and their true lengths
    recorded in ``n_valid``.
    """
    seq = list(traces)
    rows: List[np.ndarray] = []
    if isinstance(start_slots, (int, np.integer)):
        starts = [int(start_slots)] * len(seq)
    else:
        starts = [int(s) for s in start_slots]
        if len(starts) != len(seq):
            raise MarketError(
                f"start_slots has {len(starts)} entries for {len(seq)} traces"
            )
    for trace, start in zip(seq, starts):
        prices = _trace_prices(trace)
        if not 0 <= start < prices.size:
            raise MarketError(
                f"start_slot {start} out of range for a {prices.size}-slot trace"
            )
        rows.append(prices[start:])
    n_valid = np.asarray([row.size for row in rows], dtype=np.int64)
    width = int(n_valid.max())
    matrix = np.full((len(rows), width), np.inf)
    for i, row in enumerate(rows):
        matrix[i, : row.size] = row
    return matrix, n_valid


def _slot_length_of(traces: Union[object, Sequence[object]], job: JobSpec) -> None:
    """Reject histories whose slot length disagrees with the job's."""
    seq = [traces] if hasattr(traces, "prices") else traces
    try:
        iterator: Iterable[object] = iter(seq)  # type: ignore[arg-type]
    except TypeError:
        return
    for trace in iterator:
        slot = getattr(trace, "slot_length", None)
        if slot is not None and slot != job.slot_length:
            raise MarketError(
                f"trace slot length {slot!r} differs from the job's "
                f"slot length {job.slot_length!r}"
            )


def _select_kernels() -> Tuple[Callable[..., dict], Callable[..., dict]]:
    """Kernel pair chosen by ``REPRO_SWEEP_KERNEL`` (``event`` default,
    ``reference`` for the dense oracle path, ``compiled`` for the
    numba-JIT tier).  Read per call — through the
    :data:`repro.constants.SWEEP_KERNEL` registry entry — so workers
    which inherit the parent's environment honor the same choice; when
    the compiled tier is unavailable each process degrades to the event
    kernels with a one-time warning."""
    try:
        mode = SWEEP_KERNEL.get()
    except EnvVarError as exc:
        raise MarketError(str(exc)) from None
    if mode == "compiled":
        if _compiled.COMPILED_AVAILABLE:
            return onetime_sweep_kernel_compiled, persistent_sweep_kernel_compiled
        _compiled.warn_compiled_fallback()
        return onetime_sweep_kernel, persistent_sweep_kernel
    if mode == "event":
        return onetime_sweep_kernel, persistent_sweep_kernel
    return onetime_sweep_kernel_reference, persistent_sweep_kernel_reference


def _resolve_payload(payload: Tuple[Any, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize a chunk payload into ``(prices, n_valid)`` arrays.

    ``("inline", prices, n_valid)`` carries the arrays by value (serial
    and thread execution);  ``("shm", descriptor, lo, hi)`` maps the
    shared segment and slices rows ``[lo, hi)`` without copying.
    """
    kind = payload[0]
    if kind == "shm":
        _, descriptor, lo, hi = payload
        prices, n_valid = open_stack(descriptor)
        return prices[lo:hi], n_valid[lo:hi]
    if kind == "inline":
        _, prices, n_valid = payload
        return prices, n_valid
    raise MarketError(f"unknown chunk payload kind {kind!r}")


def _run_kernel_chunk(args: Tuple[Any, ...]) -> dict:
    """Top-level (picklable) kernel dispatcher for executor fan-out.

    Besides the kernel fields, the returned dict reports the chunk's
    distribution-cache hit/miss delta so process workers — whose caches
    are invisible to the parent — still feed ``SweepCounters``.
    """
    strategy_value, payload, bids, work, recovery_time, slot_length = args
    prices, n_valid = _resolve_payload(payload)
    onetime_kernel, persistent_kernel = _select_kernels()
    hits0, misses0 = _cache.distribution_cache_stats()
    if Strategy(strategy_value) is Strategy.ONE_TIME:
        result = onetime_kernel(
            prices, bids, work=work, slot_length=slot_length, n_valid=n_valid
        )
    else:
        result = persistent_kernel(
            prices,
            bids,
            work=work,
            recovery_time=recovery_time,
            slot_length=slot_length,
            n_valid=n_valid,
        )
    hits1, misses1 = _cache.distribution_cache_stats()
    result["cache_hits"] = hits1 - hits0
    result["cache_misses"] = misses1 - misses0
    return result


def _failure_placeholder(n_bids: int) -> dict:
    """The row recorded for a permanently failed trace: NaN costs/times,
    ``completed=False`` — unmistakably "no data", not "ran and lost"."""
    return {
        "completed": np.zeros((1, n_bids), dtype=bool),
        "cost": np.full((1, n_bids), np.nan),
        "completion_time": np.full((1, n_bids), np.nan),
        "running_time": np.full((1, n_bids), np.nan),
        "idle_time": np.full((1, n_bids), np.nan),
        "recovery_time_used": np.full((1, n_bids), np.nan),
        "interruptions": np.zeros((1, n_bids), dtype=np.int64),
        "slots_simulated": 0,
        "cache_hits": 0,
        "cache_misses": 0,
    }


def run_sweep(
    traces: Union[object, Sequence[object]],
    bids: Union[float, Sequence[float], np.ndarray],
    job: JobSpec,
    *,
    strategy: Union[Strategy, str] = Strategy.PERSISTENT,
    start_slots: Union[int, Sequence[int]] = 0,
    pair_bids: bool = False,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    faults: "Optional[FaultInjector]" = None,
    retries: int = 0,
    item_timeout: Optional[float] = None,
    strict: bool = True,
    journal: "Union[None, str, os.PathLike, SweepJournal]" = None,
    worker_faults: "Optional[WorkerFaults]" = None,
) -> SweepReport:
    """Evaluate a grid of bids against a stack of price traces in one shot.

    Parameters
    ----------
    traces:
        One trace or a sequence of traces — each a
        :class:`~repro.traces.history.SpotPriceHistory` or a 1-D price
        array.  Lengths may differ (rows are padded internally).
    bids:
        Bid prices in $/hour.  By default every bid is evaluated against
        every trace (grid mode, cells ``(n_traces, n_bids)``); with
        ``pair_bids=True``, ``bids[i]`` is evaluated only against
        ``traces[i]`` (cells ``(n_traces, 1)``).
    job:
        The :class:`~repro.core.types.JobSpec` to run in every cell.
    strategy:
        ``Strategy.PERSISTENT`` or ``Strategy.ONE_TIME`` — the request
        kind the kernel simulates.  ``Strategy.PERCENTILE``,
        ``Strategy.PORTFOLIO`` and ``Strategy.CVAR`` are bid-*selection*
        strategies, not execution kinds: compute their bid (e.g. via
        ``BiddingClient.decide``) and sweep it as PERSISTENT.
    start_slots:
        Slot offset(s) applied per trace before simulation.
    max_workers / executor:
        Optional trace-level fan-out: ``"thread"`` runs ``max_workers``
        shards on a ``concurrent.futures`` thread pool, ``"process"``
        routes about ``4 * max_workers`` shards through the
        fault-tolerant work-stealing scheduler
        (:func:`repro.scheduler.run_shards`) — dynamic shard dispatch,
        straggler speculation, crash respawn and poison-shard
        quarantine, with results bitwise identical to a serial run.
        A serial run is one shard.  ``max_workers`` below 1 raises
        :class:`~repro.errors.SweepExecutionError`.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; trace
        ``i`` is perturbed with ``faults.derive(i)`` before simulation,
        so fault-injected sweeps stay reproducible per root seed.
    retries / item_timeout / strict / journal:
        Resilient execution.  The shards are cut exactly as in a plain
        run, so with nothing failing resilience costs nothing.  A shard
        that fails is split in half and both halves re-run, until the
        failing trace sits alone in a one-row shard; only that shard is
        retried, ``retries`` more times after a capped exponential
        delay (``min(2, 0.05 * 2**k)`` seconds before retry ``k``).  ``item_timeout`` bounds each shard run (on
        the process path a worker past it is killed and respawned).
        With ``strict=False`` a trace that still fails lands in
        ``SweepReport.failures`` (its row becomes a NaN placeholder)
        instead of raising
        :class:`~repro.errors.SweepExecutionError`.  ``journal`` (a path
        or :class:`~repro.resilience.execution.SweepJournal`) persists
        finished shards under ``rows:lo:hi`` keys, so an interrupted
        sweep resumes by running only the rows no record covers
        (``trace:i`` records of older journals still count).
    worker_faults:
        Optional :class:`~repro.resilience.faults.WorkerFaults` —
        seeded process-level chaos (worker kills, stalls, slow starts)
        injected into the scheduler pool.  Requires
        ``executor="process"``; results remain bitwise identical to the
        fault-free run.

    Returns
    -------
    SweepReport
        Per-cell outcome arrays, bitwise identical to the fastpath
        oracle, plus work/cache counters.
    """
    strategy = normalize_strategy(strategy)
    if not strategy.sweepable:
        raise ValueError(
            f"Strategy.{strategy.name} selects a bid; compute it first and "
            "sweep the resulting price with Strategy.PERSISTENT"
        )
    _slot_length_of(traces, job)
    trace_list = _as_trace_list(traces)
    if faults is not None:
        trace_list = [
            faults.derive(i).perturb_history(trace)
            if hasattr(trace, "prices")
            else faults.derive(i).perturb_prices(np.asarray(trace, dtype=float))
            for i, trace in enumerate(trace_list)
        ]
    matrix, n_valid = _stack_traces(trace_list, start_slots)
    n_traces = matrix.shape[0]
    workers, processes = shards.plan_fanout(
        executor, max_workers, n_traces,
        retries=retries, item_timeout=item_timeout, worker_faults=worker_faults,
    )

    bid_values = np.atleast_1d(np.asarray(bids, dtype=float))
    if pair_bids:
        if bid_values.shape != (n_traces,):
            raise MarketError(
                f"pair_bids=True needs one bid per trace; got {bid_values.shape} "
                f"for {n_traces} traces"
            )
        kernel_bids: np.ndarray = bid_values[:, None]
    else:
        if bid_values.ndim != 1:
            raise MarketError("bids must be a scalar or 1-D sequence")
        kernel_bids = bid_values

    recovery = job.recovery_time if strategy is Strategy.PERSISTENT else 0.0
    hits0, misses0 = _cache.distribution_cache_stats()
    n_cols = 1 if pair_bids else int(kernel_bids.shape[-1])

    if journal is not None:
        from ..resilience.execution import SweepJournal

        if not isinstance(journal, SweepJournal):
            # Non-durable on purpose: the sweep journal is a resume
            # optimization — losing trailing records after a crash
            # only re-runs those cells, it never corrupts results.
            journal = SweepJournal(
                journal,
                fsync=False,
                signature={
                    "strategy": strategy.value,
                    "execution_time": job.execution_time,
                    "recovery_time": recovery,
                    "slot_length": job.slot_length,
                    "pair_bids": pair_bids,
                    "bids": [float(b) for b in bid_values],
                    "n_traces": n_traces,
                },
            )
    stack: Optional[SharedPriceStack] = None
    try:
        if processes:
            # Zero-copy fan-out: the (T, S) matrix and n_valid live in one
            # shared-memory segment; workers get (name, shape, row-bounds).
            # Bisection waves and journal-resumed runs reuse the segment.
            stack = SharedPriceStack(matrix, n_valid)

        def shard_args(lo: int, hi: int) -> Tuple[Any, ...]:
            if stack is not None:
                payload: Tuple[Any, ...] = ("shm", stack.descriptor, lo, hi)
            else:
                payload = ("inline", matrix[lo:hi], n_valid[lo:hi])
            return (
                strategy.value,
                payload,
                kernel_bids[lo:hi] if pair_bids else kernel_bids,
                job.execution_time,
                recovery,
                job.slot_length,
            )

        run = shards.run_spans(
            _run_kernel_chunk,
            shard_args,
            n_traces,
            executor=executor,
            workers=workers,
            processes=processes,
            unit="rows",
            journal=journal,
            retries=retries,
            strict=strict,
            item_timeout=item_timeout,
            worker_faults=worker_faults,
        )
    finally:
        if stack is not None:
            stack.close()

    pieces = dict(run.results)
    for failure in run.failures:
        pieces[(failure.index, failure.index + 1)] = _failure_placeholder(n_cols)
    results = [pieces[span] for span in sorted(pieces)]
    merged = {
        key: np.concatenate([r[key] for r in results], axis=0) for key in _FIELDS
    }
    slots = int(sum(r["slots_simulated"] for r in results))
    hits1, misses1 = _cache.distribution_cache_stats()
    # In-process shards already moved the parent counters; process-pool
    # shards report their own worker-local deltas (journal-reused spans
    # excluded — their recorded deltas were spent in an earlier run).
    worker_hits = worker_misses = 0
    if processes:
        fresh = [r for span, r in run.results.items() if span not in run.reused]
        worker_hits = int(sum(r.get("cache_hits", 0) for r in fresh))
        worker_misses = int(sum(r.get("cache_misses", 0) for r in fresh))
    counters = SweepCounters(
        n_traces=n_traces,
        n_bids=n_cols,
        slots_simulated=slots,
        kernel_seconds=run.seconds,
        cache_hits=(hits1 - hits0) + worker_hits,
        cache_misses=(misses1 - misses0) + worker_misses,
    )
    return SweepReport(
        strategy=strategy,
        bids=bid_values,
        completed=merged["completed"],
        cost=merged["cost"],
        completion_time=merged["completion_time"],
        running_time=merged["running_time"],
        idle_time=merged["idle_time"],
        recovery_time_used=merged["recovery_time_used"],
        interruptions=merged["interruptions"],
        counters=counters,
        failures=run.failures,
        scheduler=run.scheduler,
    )
