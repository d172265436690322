"""The TCP front door: JSON-lines protocol over a real socket.

Every test binds port 0 on localhost and talks to the server through
:func:`repro.farm.server.request` (or a raw connection for the malformed
input paths), so the wire codecs, the dispatch table, and the error
replies are all exercised end to end.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

from repro.core.ring import Ring, RingGeometry
from repro.farm import RingFarm
from repro.farm.job import FarmJob, job_to_wire
from repro.farm.server import LINE_LIMIT, FarmServer, request

from tests.farm.test_farm import direct_run, fir_job


def serve(coro_factory):
    """Run *coro_factory(farm, server)* against a live inline farm."""

    async def go():
        farm = RingFarm(workers=1, use_processes=False)
        server = FarmServer(farm, port=0)
        async with farm:
            async with server:
                return await coro_factory(farm, server)

    return asyncio.run(go())


async def raw_request(server: FarmServer, line: bytes) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   server.port)
    try:
        writer.write(line)
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class TestFarmServer:
    def test_ping(self):
        async def go(farm, server):
            return await request("127.0.0.1", server.port, {"op": "ping"})

        assert serve(go) == {"ok": True, "pong": True}

    def test_submit_round_trip_matches_direct_run(self):
        job = fir_job()
        want_taps, want_digest = direct_run(job)

        async def go(farm, server):
            return await request("127.0.0.1", server.port,
                                 {"op": "submit",
                                  "job": job_to_wire(job)})

        reply = serve(go)
        assert reply["ok"]
        result = reply["result"]
        assert result["taps"] == want_taps
        assert result["digest"] == hashlib.sha256(
            repr(want_digest).encode()).hexdigest()
        assert result["cycles_run"] == job.cycles
        assert not result["migrated"]

    def test_submit_with_migration(self):
        job = fir_job(cycles=20)
        _, want_digest = direct_run(job)

        async def go(farm, server):
            reply = await request("127.0.0.1", server.port,
                                  {"op": "submit",
                                   "job": job_to_wire(job),
                                   "migrate_at": 10})
            return farm.jobs_migrated, reply

        migrated, reply = serve(go)
        assert migrated == 1 and reply["result"]["migrated"]
        assert reply["result"]["digest"] == hashlib.sha256(
            repr(want_digest).encode()).hexdigest()

    def test_metrics_both_formats(self):
        async def go(farm, server):
            await farm.submit(fir_job())
            as_json = await request("127.0.0.1", server.port,
                                    {"op": "metrics", "format": "json"})
            as_prom = await request("127.0.0.1", server.port,
                                    {"op": "metrics"})
            return as_json, as_prom

        as_json, as_prom = serve(go)
        assert as_json["metrics"]["farm_jobs_completed_total"] == 1
        assert "# TYPE repro_farm_workers gauge" in as_prom["prometheus"]

    def test_rejection_reply_carries_retry_after(self):
        async def go(farm, server):
            await farm.drain()
            return await request("127.0.0.1", server.port,
                                 {"op": "submit",
                                  "job": job_to_wire(fir_job())})

        reply = serve(go)
        assert reply == {"ok": False, "error": "rejected",
                         "reason": "farm is draining",
                         "retry_after": reply["retry_after"]}
        assert reply["retry_after"] > 0

    def test_invalid_job_reports_error_not_crash(self):
        wire = job_to_wire(fir_job())
        wire["tenant"] = ""

        async def go(farm, server):
            bad = await request("127.0.0.1", server.port,
                                {"op": "submit", "job": wire})
            alive = await request("127.0.0.1", server.port,
                                  {"op": "ping"})
            return bad, alive

        bad, alive = serve(go)
        assert not bad["ok"] and "ConfigurationError" in bad["error"]
        assert alive["ok"], "a bad job must not take the server down"

    def test_malformed_lines_get_error_replies(self):
        async def go(farm, server):
            return (await raw_request(server, b"this is not json\n"),
                    await raw_request(server, b"42\n"),
                    await raw_request(server, b'{"op": "frobnicate"}\n'))

        bad_json, non_object, unknown = serve(go)
        assert not bad_json["ok"] and "bad json" in bad_json["error"]
        assert non_object["error"] == "request must be an object"
        assert "unknown op" in unknown["error"]

    def test_64x8_fabric_round_trips(self):
        ring = Ring(RingGeometry(layers=64, width=8))
        job = FarmJob(tenant="dave", layers=64, width=8,
                      plane=ring.config.capture_plane(), cycles=4,
                      streams={0: [1, 2, 3]}, taps=[(63, 7, None)])
        line = json.dumps({"op": "submit", "job": job_to_wire(job)})
        assert 1 << 16 < len(line) < LINE_LIMIT
        want_taps, want_digest = direct_run(job)

        async def go(farm, server):
            return await request("127.0.0.1", server.port,
                                 json.loads(line))

        reply = serve(go)
        assert reply["ok"], reply
        assert reply["result"]["taps"] == want_taps
        assert reply["result"]["digest"] == hashlib.sha256(
            repr(want_digest).encode()).hexdigest()

    def test_over_limit_line_gets_error_then_close(self):
        line = (b'{"op": "ping", "pad": "' + b"x" * LINE_LIMIT
                + b'"}\n')

        async def go(farm, server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                writer.write(line)
                await writer.drain()
                reply = json.loads(await reader.readline())
                closed = await reader.read() == b""
            finally:
                writer.close()
                await writer.wait_closed()
            alive = await request("127.0.0.1", server.port,
                                  {"op": "ping"})
            return reply, closed, alive

        reply, closed, alive = serve(go)
        assert reply == {"ok": False, "error": f"request line exceeds "
                                               f"{LINE_LIMIT} bytes"}
        assert closed, "the server closes an over-limit connection"
        assert alive["ok"]

    def test_port_zero_binds_a_real_port(self):
        async def go(farm, server):
            return server.port

        assert serve(go) > 0
