"""Stdlib-only TCP front door for a RingFarm: JSON lines over asyncio.

Protocol: one JSON object per line, one JSON reply per line, on a plain
TCP stream (``asyncio.start_server``; no third-party dependencies).

Requests::

    {"op": "ping"}
    {"op": "metrics", "format": "prometheus" | "json"}
    {"op": "submit", "job": {...job wire form...}, "migrate_at": 120}

Replies always carry ``"ok"``.  A successful submit returns the result
wire form (tap streams, state digest hex, warm/plan telemetry); a
backpressure rejection returns ``{"ok": false, "error": "rejected",
"retry_after": seconds}`` so clients can implement honest backoff — the
server never buffers beyond the farm's bounded queues.  A request line
longer than :data:`LINE_LIMIT` gets an error reply, and the server then
closes the connection.

:func:`request` is the matching one-shot client helper (used by the
server tests and the load benchmark's TCP mode).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.farm.farm import FarmRejected, RingFarm
from repro.farm.job import job_from_wire, result_to_wire

#: Longest request or reply line, in bytes, on both ends of the
#: connection.  A bare 64x8 fabric's submit line is ~97 KB (asyncio's
#: 64 KiB default cannot carry it); 1 MiB leaves room for its streams
#: and for denser planes.
LINE_LIMIT = 1 << 20


class FarmServer:
    """Serve one :class:`~repro.farm.farm.RingFarm` over TCP."""

    def __init__(self, farm: RingFarm, host: str = "127.0.0.1",
                 port: int = 0):
        self.farm = farm
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks a free
        one; :attr:`port` is updated with the bound port)."""
        await self.farm.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "FarmServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial
                except asyncio.LimitOverrunError:
                    # Read the rest of the line before closing: unread
                    # input would make the close a reset that can
                    # discard the reply.
                    await _discard_line(reader)
                    reply = {"ok": False,
                             "error": f"request line exceeds {LINE_LIMIT} "
                                      f"bytes"}
                    writer.write(json.dumps(reply).encode() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                reply = await self._dispatch(line)
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"bad json: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be an object"}
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "metrics":
                snapshot = self.farm.metrics()
                if request.get("format") == "json":
                    return {"ok": True,
                            "metrics": json.loads(snapshot.to_json())}
                return {"ok": True,
                        "prometheus": snapshot.to_prometheus()}
            if op == "submit":
                job = job_from_wire(request["job"])
                try:
                    result = await self.farm.submit(
                        job, migrate_at=request.get("migrate_at"))
                except FarmRejected as exc:
                    return {"ok": False, "error": "rejected",
                            "reason": exc.reason,
                            "retry_after": exc.retry_after}
                return {"ok": True, "result": result_to_wire(result)}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Consume input through the next newline (or EOF), holding at most
    :data:`LINE_LIMIT` bytes at a time."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


async def request(host: str, port: int, payload: dict,
                  timeout: float = 30.0) -> dict:
    """One-shot client: send *payload*, await the JSON reply."""
    reader, writer = await asyncio.open_connection(host, port,
                                                   limit=LINE_LIMIT)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


__all__ = ["FarmServer", "LINE_LIMIT", "request"]
