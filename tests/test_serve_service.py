"""The decision daemon: guard → cache → tables, and the TCP transport."""

import asyncio
import json

import pytest

from repro.core.types import DecisionRequest, JobSpec, Strategy
from repro.market.price_sources import TracePriceSource
from repro.serve.cache import DecisionCache
from repro.serve.ingest import IngestLoop, MarketState
from repro.serve.loadgen import build_requests, run_loadgen
from repro.serve.protocol import request_to_wire
from repro.serve.service import BidService, start_server

ONDEMAND = 0.35


@pytest.fixture
def state(serve_history, serve_grid):
    return MarketState(
        TracePriceSource(serve_history),
        initial_history=serve_history,
        ondemand_price=ONDEMAND,
        grid=serve_grid,
        rebuild_every=6,
    )


@pytest.fixture
def service(state):
    return BidService(
        state, cache=DecisionCache(capacity=64), stale_after=50
    )


@pytest.fixture
def grid_request(serve_history, serve_grid):
    return DecisionRequest(
        job=JobSpec(
            execution_time=serve_grid.execution_times[1],
            recovery_time=serve_grid.recovery_times[1],
            slot_length=serve_history.slot_length,
        ),
        strategy=Strategy.PERSISTENT,
    )


class TestHandle:
    def test_tier_progression_table_then_memory(self, service, grid_request):
        first = service.handle(grid_request)
        second = service.handle(grid_request)
        assert first.cache_tier == "table"
        assert second.cache_tier == "memory"
        assert second.decision == first.decision
        assert service.stats.requests == 2
        assert service.stats.by_tier == {"table": 1, "memory": 1}

    def test_stale_tables_degrade(self, state, service, grid_request):
        # Push the ingest counter past the TTL without rebuilding.
        state._rebuild_every = 10**9
        state.advance(service.stale_after + 1)
        response = service.handle(grid_request)
        assert "stale" in response.degradation_reason
        assert response.decision.degraded
        assert response.decision.price == ONDEMAND
        assert service.stats.degraded == 1
        assert service.health()["status"] == "degraded"

    def test_faulted_market_degrades(self, state, service, grid_request):
        state.faulted = True
        state.fault_reason = "injected"
        response = service.handle(grid_request)
        assert "market faulted: injected" in response.degradation_reason
        assert service.health()["faulted"] is True

    def test_healthy_service_reports_serving(self, service):
        payload = service.health()
        assert payload["ok"] and payload["status"] == "serving"
        assert payload["generation"] == 0
        assert payload["instance_type"] == "r3.xlarge"

    def test_stats_payload_reflects_traffic(self, service, grid_request):
        service.handle(grid_request)
        payload = service.stats_payload()
        assert payload["service"]["requests"] == 1
        assert payload["cache"]["misses"] == 1
        assert payload["table_version"] == service.state.tables.version


class TestWireDispatch:
    def test_decide_roundtrip(self, service, grid_request):
        answer = service.handle_wire(request_to_wire(grid_request))
        assert answer["ok"]
        assert answer["cache_tier"] == "table"
        assert answer["decision"]["price"] == pytest.approx(
            service.handle(grid_request).price
        )

    def test_unknown_op_is_a_structured_error(self, service):
        answer = service.handle_wire({"op": "explode"})
        assert answer == {"ok": False, "error": "unknown op 'explode'"}
        assert service.stats.errors == 1

    def test_invalid_decide_payload_is_a_structured_error(self, service):
        answer = service.handle_wire({"op": "decide", "job": {}})
        assert not answer["ok"]
        assert "invalid decide request" in answer["error"]


async def _roundtrip_lines(service, lines):
    """Boot the server on an ephemeral port and exchange raw lines."""
    server = await start_server(service, port=0)
    port = server.sockets[0].getsockname()[1]
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        answers = []
        for line in lines:
            writer.write(line)
            await writer.drain()
            answers.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
    return answers


class TestTcpTransport:
    def test_decide_health_stats_over_the_socket(self, service, grid_request):
        local = service.handle(grid_request)  # also warms the cache
        wire = json.dumps(request_to_wire(grid_request)).encode() + b"\n"
        decide, health, stats = asyncio.run(
            _roundtrip_lines(
                service, [wire, b'{"op":"health"}\n', b'{"op":"stats"}\n']
            )
        )
        assert decide["ok"]
        # JSON floats round-trip exactly: the wire answer equals the
        # in-process one bit for bit.
        assert decide["decision"]["price"] == local.price
        assert decide["decision"]["expected_cost"] == local.expected_cost
        assert decide["table_version"] == local.table_version
        assert health["status"] == "serving"
        assert stats["service"]["requests"] >= 2

    def test_malformed_line_keeps_the_connection_alive(
        self, service, grid_request
    ):
        wire = json.dumps(request_to_wire(grid_request)).encode() + b"\n"
        bad, good = asyncio.run(
            _roundtrip_lines(service, [b"this is not json\n", wire])
        )
        assert not bad["ok"] and "malformed" in bad["error"]
        assert good["ok"]
        assert service.stats.errors == 1

    def test_oversized_line_gets_an_error_and_the_connection_lives(
        self, service, grid_request
    ):
        wire = json.dumps(request_to_wire(grid_request)).encode() + b"\n"
        huge = b'{"op":"decide","pad":"' + b"x" * (70 * 1024) + b'"}\n'
        bad, good = asyncio.run(_roundtrip_lines(service, [huge, wire]))
        assert not bad["ok"] and "exceeds" in bad["error"]
        assert good["ok"]
        assert good["decision"]["price"] == service.handle(grid_request).price
        assert service.stats.errors == 1

    def test_oversized_line_pipelined_with_a_request(
        self, service, grid_request
    ):
        wire = json.dumps(request_to_wire(grid_request)).encode() + b"\n"
        huge = b"y" * (200 * 1024) + b"\n"

        async def pipelined():
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(huge + wire)
                await writer.drain()
                answers = [json.loads(await reader.readline()) for _ in range(2)]
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return answers

        bad, good = asyncio.run(pipelined())
        assert not bad["ok"] and "exceeds" in bad["error"]
        assert good["ok"]
        assert service.stats.errors == 1

    def test_server_runs_the_ingest_loop(self, state, service):
        async def serve_and_ingest():
            ingest = IngestLoop(state)
            server = await start_server(
                service, port=0, ingest=ingest, max_ingest_slots=8
            )
            try:
                await server._repro_ingest_task
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(serve_and_ingest())
        assert state.slots_ingested == 8
        assert state.tables.generation == 1  # rebuild_every=6 fired once


class TestLoadgenEndToEnd:
    def test_small_run_reports_zero_errors(
        self, service, serve_history, serve_grid, rng
    ):
        requests = build_requests(
            40,
            grid=serve_grid,
            slot_length=serve_history.slot_length,
            rng=rng,
        )

        async def drive():
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_loadgen(
                    "127.0.0.1", port, requests, connections=2, pipeline=4
                )
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(drive())
        assert report.n_requests == 40
        assert report.errors == 0
        assert len(report.latencies_ms) == 40
        assert report.qps > 0
        assert sum(report.histogram().values()) == 40
        payload = report.as_dict()
        assert payload["p50_ms"] <= payload["p99_ms"]
        assert service.stats.requests == 40
