"""Bisection failure isolation in ``run_sweep``.

A resilient sweep keeps its shards batched and, when a shard fails,
splits it in half until the failing rows sit alone.  Whatever rows
fail, the report must name exactly those rows, keep every other row
bitwise equal to a clean run, and spend O(|bad| log n) kernel calls.
The journal keys finished shards by row range, so a resumed run runs
only the rows no record covers — also from older one-trace journals.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import JobSpec, Strategy
from repro.sweep import engine, run_sweep, shards

JOB = JobSpec(execution_time=0.5, recovery_time=0.01)
BIDS = [0.03, 0.06, 0.09]
MAX_TRACES = 200

#: The trace pool; each row's first price is unique, so a shard's rows
#: can be named from its price block alone (inline or shared memory).
POOL = np.random.default_rng(11).uniform(0.02, 0.1, size=(MAX_TRACES, 120))
POOL[:, 0] = 0.02 + 1e-4 * np.arange(MAX_TRACES)
ROW_OF = {float(price): i for i, price in enumerate(POOL[:, 0])}
ORIGINAL = engine._run_kernel_chunk


def shard_rows(args):
    """The trace indices of one ``_run_kernel_chunk`` call's shard."""
    prices = engine._resolve_payload(args[1])[0]
    return [ROW_OF[float(p)] for p in prices[:, 0]]


def faulty_kernel(bad, calls):
    """A kernel that raises for any shard holding a row in ``bad``."""

    def kernel(args):
        rows = shard_rows(args)
        calls.append(rows)
        if bad.intersection(rows):
            raise RuntimeError(f"bad rows {sorted(bad.intersection(rows))}")
        return ORIGINAL(args)

    return kernel


def no_wait(_delay):
    """Stands in for the driver's sleep between retry waves."""


def call_bound(n, n_bad, n_shards, retries):
    """Kernel calls bisection may spend: the first wave, two halves per
    failing multi-row shard (at most ``n_bad`` per level over
    ``ceil(log2 n)`` levels), and the retries of each isolated row."""
    levels = math.ceil(math.log2(n)) if n > 1 else 0
    return n_shards + 2 * n_bad * levels + retries * n_bad


def assert_isolated(report, clean, bad):
    assert report.failed_traces() == tuple(sorted(bad))
    ok = np.ones(clean.shape[0], dtype=bool)
    ok[sorted(bad)] = False
    for name in (
        "completed",
        "cost",
        "completion_time",
        "running_time",
        "idle_time",
        "recovery_time_used",
        "interruptions",
    ):
        got, want = getattr(report, name)[ok], getattr(clean, name)[ok]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for i in bad:
        assert not report.completed[i].any()
        assert np.isnan(report.cost[i]).all()
        assert np.isnan(report.completion_time[i]).all()


@st.composite
def fault_cases(draw):
    n = draw(st.integers(1, MAX_TRACES))
    bad = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 12)))
    retries = draw(st.sampled_from([0, 1, 2]))
    strategy = draw(st.sampled_from([Strategy.PERSISTENT, Strategy.ONE_TIME]))
    return n, bad, retries, strategy


class TestBisectionIsolation:
    @pytest.mark.parametrize(
        "fanout, n_shards",
        [({}, 1), ({"executor": "thread", "max_workers": 2}, 2)],
        ids=["serial", "thread"],
    )
    @settings(max_examples=40, deadline=None)
    @given(case=fault_cases())
    def test_bad_rows_isolated_within_call_bound(self, fanout, n_shards, case):
        n, bad, retries, strategy = case
        traces = list(POOL[:n])
        clean = run_sweep(traces, BIDS, JOB, strategy=strategy)
        calls = []
        with mock.patch.object(
            engine, "_run_kernel_chunk", faulty_kernel(bad, calls)
        ), mock.patch.object(shards, "_sleep", no_wait):
            report = run_sweep(
                traces, BIDS, JOB, strategy=strategy, retries=retries,
                strict=False, **fanout,
            )
        assert_isolated(report, clean, bad)
        assert len(calls) <= call_bound(n, len(bad), min(n_shards, n), retries)
        for i in bad:
            assert [f.attempts for f in report.failures if f.index == i] == [retries + 1]

    def test_process_pool_isolates_bad_rows(self):
        n, bad, retries = 13, {0, 6, 12}, 1
        traces = list(POOL[:n])
        clean = run_sweep(traces, BIDS, JOB)
        with mock.patch.object(
            engine, "_run_kernel_chunk", faulty_kernel(bad, [])
        ), mock.patch.object(shards, "_sleep", no_wait):
            report = run_sweep(
                traces, BIDS, JOB, executor="process", max_workers=2,
                retries=retries, strict=False,
            )
        assert_isolated(report, clean, bad)
        assert [f.attempts for f in report.failures] == [retries + 1] * len(bad)
        # Worker-side calls are invisible here; the pool's dispatch count
        # (minus straggler copies) is the same number.
        stats = report.scheduler
        assert stats.dispatched - stats.speculated <= call_bound(
            n, len(bad), min(n, 4 * 2), retries
        )


class TestRowRangeJournal:
    def test_resume_after_bisected_partial_run_reruns_only_failed_rows(
        self, tmp_path
    ):
        n, bad = 24, {4, 5, 17}
        traces = list(POOL[:n])
        path = tmp_path / "sweep.jsonl"
        clean = run_sweep(traces, BIDS, JOB)
        fanout = {"executor": "thread", "max_workers": 2}
        with mock.patch.object(engine, "_run_kernel_chunk", faulty_kernel(bad, [])):
            partial = run_sweep(
                traces, BIDS, JOB, strict=False, journal=path, **fanout
            )
        assert partial.failed_traces() == (4, 5, 17)

        lines = path.read_text().splitlines()[1:]
        spans = sorted(
            tuple(int(x) for x in json.loads(line)["key"].split(":")[1:])
            for line in lines
        )
        assert all(json.loads(line)["key"].startswith("rows:") for line in lines)
        covered = [row for lo, hi in spans for row in range(lo, hi)]
        assert sorted(covered) == sorted(set(range(n)) - bad)

        calls = []
        with mock.patch.object(engine, "_run_kernel_chunk", faulty_kernel(set(), calls)):
            resumed = run_sweep(
                traces, BIDS, JOB, strict=False, journal=path, **fanout
            )
        assert sorted(calls) == [[4, 5], [17]]
        assert not resumed.is_partial
        assert_isolated(resumed, clean, set())

    def test_legacy_per_trace_journal_resumes(self, tmp_path):
        n = 8
        traces = list(POOL[:n])
        clean = run_sweep(traces, BIDS, JOB)
        signature = {
            "strategy": Strategy.PERSISTENT.value,
            "execution_time": JOB.execution_time,
            "recovery_time": JOB.recovery_time,
            "slot_length": JOB.slot_length,
            "pair_bids": False,
            "bids": BIDS,
            "n_traces": n,
        }
        # An older journal: one "trace:i" record per finished trace.
        records = [{"magic": "repro.resilience.journal/1", "signature": signature}]
        for i in (0, 1, 3, 4):
            row = run_sweep([traces[i]], BIDS, JOB)
            result = {
                name: {
                    "data": getattr(row, name).tolist(),
                    "dtype": str(getattr(row, name).dtype),
                }
                for name in engine._FIELDS
            }
            result.update(
                slots_simulated=row.counters.slots_simulated,
                cache_hits=0,
                cache_misses=0,
            )
            records.append({"key": f"trace:{i}", "result": result})
        path = tmp_path / "legacy.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

        calls = []
        with mock.patch.object(engine, "_run_kernel_chunk", faulty_kernel(set(), calls)):
            resumed = run_sweep(traces, BIDS, JOB, strict=False, journal=path)
        assert sorted(calls) == [[2], [5, 6, 7]]
        assert_isolated(resumed, clean, set())
