"""The shard driver under both batch engines.

:func:`repro.sweep.run_sweep` and :func:`repro.mapreduce.run_plan_grid`
both evaluate independent rows — traces, or (plan, run) lanes — whose
kernel results concatenate along the row axis.  :func:`run_spans` is the
one path that runs them: it resumes from a journal keyed by row span,
cuts the remaining rows into shards, runs each wave of shards inline, on
a thread pool or on the work-stealing process pool
(:func:`repro.scheduler.run_shards`), and isolates a failing row by
bisection.  An engine keeps only what is specific to it: stacking its
inputs, ``shard_args(lo, hi)``, its kernel, its journal signature and
the merge of the per-span results.
"""

from __future__ import annotations

import re
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from ..errors import SweepExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.execution import ItemFailure, SweepJournal
    from ..resilience.faults import WorkerFaults
    from ..scheduler import SchedulerStats

__all__ = ["ShardRun", "plan_fanout", "run_spans"]

Span = Tuple[int, int]

#: Retry wave ``k`` (0-based) of an isolated row waits
#: ``min(_RETRY_CAP_S, _RETRY_BASE_S * 2**k)`` seconds.
_RETRY_BASE_S = 0.05
_RETRY_CAP_S = 2.0
#: The wait between retry waves; tests swap it out to skip the delay.
_sleep = time.sleep


def plan_fanout(
    executor: str,
    max_workers: Optional[int],
    n_rows: int,
    *,
    retries: int = 0,
    item_timeout: Optional[float] = None,
    worker_faults: "Optional[WorkerFaults]" = None,
) -> Tuple[int, bool]:
    """Validate the fan-out arguments of a run over ``n_rows`` rows.

    Returns the worker count (1 when ``max_workers`` is ``None``) and
    whether shards run on the process pool — and so whether an engine's
    inputs are worth putting in shared memory (and worker-local counters
    need merging back).
    """
    if executor not in ("thread", "process"):
        raise ValueError(f"unknown executor {executor!r}; use 'thread' or 'process'")
    if worker_faults is not None and executor != "process":
        raise ValueError("worker_faults requires executor='process'")
    if max_workers is not None and max_workers < 1:
        raise SweepExecutionError(f"max_workers must be >= 1, got {max_workers!r}")
    if retries < 0:
        raise SweepExecutionError(f"retries must be >= 0, got {retries!r}")
    if item_timeout is not None and not item_timeout > 0:
        raise SweepExecutionError(
            f"item_timeout must be positive, got {item_timeout!r}"
        )
    workers = max_workers or 1
    return workers, executor == "process" and (
        (workers > 1 and n_rows > 1)
        or item_timeout is not None
        or worker_faults is not None
    )


def _serialize_result(result: dict) -> dict:
    """Kernel result dict → JSON-safe journal payload (dtypes preserved)."""
    payload = {}
    for key, value in result.items():
        if isinstance(value, np.ndarray):
            payload[key] = {"data": value.tolist(), "dtype": str(value.dtype)}
        else:
            payload[key] = value
    return payload


def _deserialize_result(payload: dict) -> dict:
    """Inverse of :func:`_serialize_result` — bitwise round-trip (JSON
    floats use shortest round-trip repr)."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict) and "dtype" in value:
            out[key] = np.asarray(value["data"], dtype=value["dtype"])
        else:
            out[key] = value
    return out


def _journal_spans(finished: dict, n_rows: int, unit: str) -> Dict[Span, dict]:
    """Journaled shard results keyed by their ``(lo, hi)`` row span.

    ``{unit}:lo:hi`` names a finished shard of rows ``[lo, hi)``;
    ``trace:i`` records of older sweep journals read as one row.
    Records are taken in row order, skipping any that overlaps one
    already taken, so the returned spans are disjoint.
    """
    key_pattern = re.compile(rf"{re.escape(unit)}:(\d+):(\d+)|trace:(\d+)")
    spans = []
    for key, payload in finished.items():
        match = key_pattern.fullmatch(key)
        if match is None:
            continue
        lo, hi, row = match.groups()
        span = (int(row), int(row) + 1) if row is not None else (int(lo), int(hi))
        spans.append((span, payload))
    covered = np.zeros(n_rows, dtype=bool)
    taken = {}
    for (lo, hi), payload in sorted(spans, key=lambda item: item[0]):
        if 0 <= lo < hi <= n_rows and not covered[lo:hi].any():
            covered[lo:hi] = True
            taken[(lo, hi)] = _deserialize_result(payload)
    return taken


def _cut_spans(rows: np.ndarray, n_shards: int) -> List[Span]:
    """Cut sorted row indices into about ``n_shards`` ``(lo, hi)`` spans
    of contiguous rows; a gap (rows served from a journal) always cuts."""
    spans: List[Span] = []
    if not rows.size:
        return spans
    for piece in np.array_split(rows, min(n_shards, rows.size)):
        breaks = np.flatnonzero(np.diff(piece) != 1) + 1
        for run in np.split(piece, breaks):
            spans.append((int(run[0]), int(run[-1]) + 1))
    return spans


class _Failed(NamedTuple):
    """One failed shard attempt.  ``exc`` is the exception itself when
    it was raised in this process (so a strict run can chain it)."""

    error_type: str
    message: str
    exc: Optional[BaseException] = None


def _run_in_process(
    kernel: Callable[[Any], dict],
    wave: List[Span],
    shard_args: Callable[[int, int], Any],
    *,
    pool: Optional[ThreadPoolExecutor],
    timeout: Optional[float],
    catch: bool,
    journal: "Optional[SweepJournal]",
    unit: str,
) -> list:
    """Run each span of ``wave`` once in this process — inline, or on
    ``pool`` — and return one kernel result or :class:`_Failed` per span.

    With ``catch=False`` a shard's exception propagates unchanged (the
    plain, non-resilient run).  Finished spans are journaled as they
    complete.
    """
    futures = (
        [pool.submit(kernel, shard_args(lo, hi)) for lo, hi in wave]
        if pool is not None
        else None
    )
    outcomes: list = []
    for k, (lo, hi) in enumerate(wave):
        try:
            if futures is None:
                result = kernel(shard_args(lo, hi))
            elif not wait_futures([futures[k]], timeout=timeout).done:
                # The thread cannot be killed; its late result is dropped.
                futures[k].cancel()
                outcomes.append(
                    _Failed("TimeoutError", f"no result within {timeout:g}s")
                )
                continue
            else:
                result = futures[k].result()
        except Exception as exc:
            if not catch:
                raise
            outcomes.append(_Failed(type(exc).__name__, str(exc), exc))
            continue
        if journal is not None:
            journal.record(f"{unit}:{lo}:{hi}", _serialize_result(result))
        outcomes.append(result)
    return outcomes


def _run_bisecting(
    run_wave: Callable[[List[Span]], list],
    spans: List[Span],
    *,
    retries: int,
    strict: bool,
    unit: str,
) -> "Tuple[Dict[Span, dict], List[ItemFailure]]":
    """Run row ``spans`` to completion, isolating failures by bisection.

    ``run_wave`` runs each span of a wave once on some backend and
    returns one kernel result or :class:`_Failed` per span.  A failed
    span of several rows is split in half and both halves join the next
    wave, so with nothing failing this is one wave and costs nothing,
    and a bad row costs O(log n) extra shard runs.  Only a failed
    single-row span spends the ``retries`` budget (after a capped
    exponential delay); once exhausted the row becomes an
    :class:`~repro.resilience.execution.ItemFailure` — or, with
    ``strict=True``, raises :class:`~repro.errors.SweepExecutionError`.
    Rows are independent in every kernel, so a half re-run alone
    returns exactly the rows it returned inside its parent.
    """
    done: Dict[Span, dict] = {}
    failures: list = []
    row_failures: Dict[int, int] = {}
    wave = list(spans)
    while wave:
        again = [row_failures[lo] for lo, hi in wave if lo in row_failures]
        if again:
            _sleep(min(_RETRY_CAP_S, _RETRY_BASE_S * 2.0 ** (max(again) - 1)))
        next_wave: List[Span] = []
        for (lo, hi), outcome in zip(wave, run_wave(wave)):
            if not isinstance(outcome, _Failed):
                done[(lo, hi)] = outcome
                continue
            if hi - lo > 1:
                mid = (lo + hi) // 2
                next_wave += [(lo, mid), (mid, hi)]
                continue
            attempts = row_failures[lo] = row_failures.get(lo, 0) + 1
            if attempts <= retries:
                next_wave.append((lo, hi))
                continue
            from ..resilience.execution import ItemFailure

            failure = ItemFailure(
                index=lo,
                label=f"{unit} [{lo}, {hi})",
                error_type=outcome.error_type,
                message=outcome.message,
                attempts=attempts,
            )
            if strict:
                raise SweepExecutionError(
                    f"work item failed permanently: {failure}"
                ) from outcome.exc
            failures.append(failure)
        wave = next_wave
    return done, sorted(failures, key=lambda f: f.index)


def _merged_scheduler_stats(parts: list, reused_rows: int) -> "SchedulerStats":
    """One :class:`~repro.scheduler.SchedulerStats` over every wave's
    pool run; ``reused`` counts rows served from the journal."""
    from ..scheduler import SchedulerStats

    totals: Dict[str, int] = {}
    for part in parts:
        for name, value in part.as_dict().items():
            totals[name] = totals.get(name, 0) + value
    totals["reused"] = reused_rows
    return SchedulerStats(**totals)


class ShardRun(NamedTuple):
    """What :func:`run_spans` hands back: the kernel result of every
    finished, disjoint ``(lo, hi)`` span, the spans of those served from
    the journal, the rows that failed permanently (``strict=False``
    only), the scheduler counters summed over waves (process pool only)
    and the seconds spent running shards."""

    results: Dict[Span, dict]
    reused: FrozenSet[Span]
    failures: "Tuple[ItemFailure, ...]"
    scheduler: "Optional[SchedulerStats]"
    seconds: float


def run_spans(
    kernel: Callable[[Any], dict],
    shard_args: Callable[[int, int], Any],
    n_rows: int,
    *,
    executor: str,
    workers: int,
    processes: bool,
    unit: str,
    journal: "Optional[SweepJournal]" = None,
    retries: int = 0,
    strict: bool = True,
    item_timeout: Optional[float] = None,
    worker_faults: "Optional[WorkerFaults]" = None,
) -> ShardRun:
    """Run ``kernel(shard_args(lo, hi))`` over rows ``[0, n_rows)``.

    ``workers`` and ``processes`` come from :func:`plan_fanout`.  Rows a ``journal`` record
    ``{unit}:lo:hi`` already covers are not run again; the rest are cut
    into shards — one serially, ``workers`` on threads, about
    ``4 * workers`` on the process pool, whose work stealing then lets a
    slow worker hold back one small shard rather than 1/``workers`` of
    the rows.

    A plain run lets a shard's exception propagate (the process pool
    quarantines a shard after the registry's failure budget and raises
    :class:`~repro.errors.SweepExecutionError`).  A resilient run — any
    of ``retries``, ``item_timeout``, ``journal`` or ``strict=False`` —
    gives each shard one attempt and bisects a failing shard down to
    its bad rows (see :func:`_run_bisecting`); ``item_timeout`` bounds
    each shard run (a pool worker past it is killed and respawned).
    """
    resilient = (
        retries > 0 or item_timeout is not None or journal is not None or not strict
    )
    done = _journal_spans(journal.load(), n_rows, unit) if journal is not None else {}
    # Every span run below is uncovered, so the pool never serves one
    # from the journal: the reused spans are exactly these.
    reused = frozenset(done)
    todo = np.ones(n_rows, dtype=bool)
    for lo, hi in done:
        todo[lo:hi] = False
    n_shards = max(2, 4 * workers) if executor == "process" and workers > 1 else workers
    spans = _cut_spans(np.flatnonzero(todo), n_shards)

    sched_parts: list = []
    pool: Optional[ThreadPoolExecutor] = None
    if processes:
        from ..scheduler import run_shards

        def run_wave(wave: List[Span]) -> list:
            sched = run_shards(
                kernel,
                [shard_args(lo, hi) for lo, hi in wave],
                max_workers=workers,
                keys=[f"{unit}:{lo}:{hi}" for lo, hi in wave],
                labels=[f"{unit} [{lo}, {hi})" for lo, hi in wave],
                journal=journal,
                serialize=_serialize_result,
                deserialize=_deserialize_result,
                strict=not resilient,
                max_shard_failures=1 if resilient else None,
                shard_timeout=item_timeout,
                worker_faults=worker_faults,
            )
            sched_parts.append(sched.stats)
            failed = {
                f.index: _Failed(f.error_type, f.message) for f in sched.failures
            }
            return [failed.get(i, r) for i, r in enumerate(sched.results)]

    else:
        # A deadline needs a pool even for a serial run, so this thread
        # can give up on a stuck shard instead of blocking.
        if spans and (
            (executor == "thread" and workers > 1 and n_rows > 1)
            or item_timeout is not None
        ):
            pool = ThreadPoolExecutor(max_workers=workers)

        def run_wave(wave: List[Span]) -> list:
            return _run_in_process(
                kernel, wave, shard_args,
                pool=pool, timeout=item_timeout, catch=resilient,
                journal=journal, unit=unit,
            )

    started = time.perf_counter()
    try:
        computed, failures = _run_bisecting(
            run_wave, spans, retries=retries, strict=strict, unit=unit
        )
    finally:
        if pool is not None:
            pool.shutdown()
    seconds = time.perf_counter() - started
    done.update(computed)
    return ShardRun(
        results=done,
        reused=reused,
        failures=tuple(failures),
        scheduler=(
            _merged_scheduler_stats(sched_parts, sum(hi - lo for lo, hi in reused))
            if processes
            else None
        ),
        seconds=seconds,
    )
