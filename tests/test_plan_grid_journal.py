"""Plan-grid journals: lane-span records and resume under any fan-out.

``run_plan_grid(journal=...)`` records each finished span of lanes under
a ``lanes:lo:hi`` key, on every executor.  A re-run of the same grid
runs only the lanes no record covers — whatever ``max_workers`` wrote
the journal — and the merged grid stays bitwise equal to the scalar
oracle.
"""

import json

import numpy as np
import pytest

from repro.core.types import BidDecision, BidKind, MapReduceJobSpec, MapReducePlan
from repro.mapreduce import grid as grid_module
from repro.mapreduce import run_plan_grid
from repro.traces.history import SpotPriceHistory

SLOT = 1.0 / 60.0


def make_plan(master_bid, slave_bid, num_slaves):
    job = MapReduceJobSpec(
        execution_time=0.1 * num_slaves,
        num_slaves=num_slaves,
        recovery_time=0.002,
        slot_length=SLOT,
    )
    return MapReducePlan(
        job=job,
        master_bid=BidDecision(
            price=master_bid, kind=BidKind.ONE_TIME, expected_cost=0.1
        ),
        slave_bid=BidDecision(
            price=slave_bid, kind=BidKind.PERSISTENT, expected_cost=0.1
        ),
        required_master_time=1.0,
        min_slaves=1,
    )


@pytest.fixture(scope="module")
def grid_inputs():
    """4 plans x 5 runs = 20 lanes of randomized traces."""
    rng = np.random.default_rng(29)
    plans = [
        make_plan(float(m), float(s), int(n))
        for m, s, n in zip([0.4, 0.7, 1.1, 5.0], [0.4, 1.1, 0.7, 5.0], [1, 2, 3, 4])
    ]

    def trace():
        prices = rng.uniform(0.3, 1.0) + rng.exponential(0.3, 200)
        return SpotPriceHistory(prices=prices, slot_length=SLOT)

    masters = [trace() for _ in range(5)]
    slaves = [trace() for _ in range(5)]
    return plans, masters, slaves, [0, 10, 40, 90, 150]


def run(grid_inputs, **kwargs):
    plans, masters, slaves, starts = grid_inputs
    return run_plan_grid(plans, masters, slaves, start_slots=starts, **kwargs)


def assert_bitwise(got, want):
    for name, array in want.to_dict().items():
        other = got.to_dict()[name]
        assert other.dtype == array.dtype, name
        assert other.tobytes() == array.tobytes(), name


def journal_spans(path):
    """The ``(lo, hi)`` lane spans recorded in a journal, in file order."""
    lines = path.read_text().splitlines()[1:]
    keys = [json.loads(line)["key"] for line in lines]
    assert all(key.startswith("lanes:") for key in keys)
    return [tuple(int(x) for x in key.split(":")[1:]) for key in keys]


@pytest.fixture
def lane_calls(monkeypatch):
    """Record how many lanes each in-process shard run covers."""
    original = grid_module._run_lane_chunk
    calls = []

    def counting(args):
        calls.append(args[2]["lane_mrow"].size)
        return original(args)

    monkeypatch.setattr(grid_module, "_run_lane_chunk", counting)
    return calls


def test_rerun_recomputes_nothing(grid_inputs, tmp_path, lane_calls):
    path = tmp_path / "grid.jsonl"
    first = run(grid_inputs, kernel="event", journal=path)
    assert journal_spans(path) == [(0, 20)]
    assert lane_calls == [20]

    del lane_calls[:]
    again = run(grid_inputs, kernel="event", journal=path)
    assert lane_calls == []
    assert_bitwise(again, first)
    assert_bitwise(again, run(grid_inputs, kernel="scalar"))


def test_partial_journal_recomputes_only_missing_lanes(
    grid_inputs, tmp_path, lane_calls
):
    path = tmp_path / "grid.jsonl"
    run(grid_inputs, kernel="event", journal=path, max_workers=2)
    assert sorted(journal_spans(path)) == [(0, 10), (10, 20)]
    # Keep the header and the record of lanes [10, 20) only.
    header, *records = path.read_text().splitlines()
    kept = [r for r in records if json.loads(r)["key"] == "lanes:10:20"]
    path.write_text("\n".join([header, *kept]) + "\n")

    del lane_calls[:]
    resumed = run(grid_inputs, kernel="event", journal=path, max_workers=2)
    assert sorted(lane_calls) == [5, 5]
    assert sorted(journal_spans(path)) == [(0, 5), (5, 10), (10, 20)]
    assert_bitwise(resumed, run(grid_inputs, kernel="scalar"))


def test_resume_is_independent_of_max_workers(grid_inputs, tmp_path, lane_calls):
    path = tmp_path / "grid.jsonl"
    run(grid_inputs, kernel="event", journal=path, executor="process",
        max_workers=2)
    spans = journal_spans(path)
    assert sorted(spans) == sorted(set(spans)) and len(spans) == 8
    # Drop two of the eight process shards, then resume on 3 threads.
    header, *records = path.read_text().splitlines()
    dropped = sorted(spans)[2:4]
    keys = {f"lanes:{lo}:{hi}" for lo, hi in dropped}
    kept = [r for r in records if json.loads(r)["key"] not in keys]
    path.write_text("\n".join([header, *kept]) + "\n")

    resumed = run(grid_inputs, kernel="event", journal=path, max_workers=3)
    missing = dropped[1][1] - dropped[0][0]
    assert sum(lane_calls) == missing
    assert_bitwise(resumed, run(grid_inputs, kernel="scalar"))

    del lane_calls[:]
    run(grid_inputs, kernel="event", journal=path)
    assert lane_calls == []
