"""Lane throughput: one fabric, B independent streams.

A lane ring (``backend="batch"``, :mod:`repro.core.lanes`) runs each of
its B lanes on the compiled ladder in turn, swapping the lane's datapath
in and out of the ring, so a long span of every lane reaches the native
kernel.  This benchmark measures a steady-state 8-tap spatial FIR (the
paper's canonical data-oriented kernel) on the interpreter, the scalar
per-cycle plan (compiled and run directly), the scalar compiled ladder
(which reaches the native kernel, for context) and lane rings at
B = 1/8/32, asserts the acceptance target — batch-32 sustains at least
4x the scalar per-cycle plan's aggregate throughput — and records
everything in ``BENCH_batch.json`` so CI archives a perf data point per
PR.

Two slow corners are recorded but not gated: a lane ring stepped once
per cycle by a configuration controller, where every lane pays a
datapath swap per cycle, and a lane ring on a fabric the native rung
rejects (a first-order IIR, whose recurrence leaves macro as the top
rung).

Run with ``pytest -s benchmarks/test_batch_throughput.py`` for the table.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.controller.core import RiscController
from repro.controller.isa import Instruction, ROp
from repro.core.ring import Ring, RingGeometry
from repro.host.system import RingSystem
from repro.kernels.fir import build_spatial_fir
from repro.kernels.iir import build_first_order_iir
from tests.rungs import rung_cycles_per_second

#: Acceptance floor: batch-32 aggregate lane-cycles/s over the scalar
#: per-cycle plan's cycles/s on the same FIR configuration.  Measured ratios
#: are typically far higher; 4x keeps the assertion robust on loaded CI.
TARGET_BATCH_SPEEDUP = 4.0

#: The headline batch width.
BATCH = 32

#: Where the recorded numbers land (repo root, picked up by CI artifacts).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

_TAPS = [3, -1, 4, 1, -5, 9, 2, -6]


def _fir_ring(**kwargs) -> Ring:
    ring = Ring(RingGeometry(layers=len(_TAPS), width=2), **kwargs)
    build_spatial_fir(_TAPS, ring=ring)
    return ring


def _host_zero(channel: int) -> int:
    return 0


def _cycles_per_second(ring: Ring, cycles: int, repeats: int = 3) -> float:
    """Best-of-*repeats* steady-state throughput of ``ring.run``."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ring.run(cycles, host_in=_host_zero)
        elapsed = time.perf_counter() - start
        best = max(best, cycles / elapsed)
    return best


def _lane_words(lane: int, cycles: int):
    return [(7 * lane + i) & 0xFF for i in range(cycles)]


def _controller_stepped(batch: int, cycles: int = 300,
                        repeats: int = 3) -> float:
    """Best-of-*repeats* cycles/s of a controller-stepped lane ring: a
    ``waiti`` program keeps the controller attached, so
    ``RingSystem.run`` steps one cycle at a time."""
    ring = _fir_ring(backend="batch", batch_size=batch)
    best = 0.0
    for _ in range(repeats):
        program = [Instruction(ROp.WAITI, imm=cycles + 10),
                   Instruction(ROp.HALT)]
        system = RingSystem(ring, RiscController(program))
        for lane in range(batch):
            system.data.stream(0, _lane_words(lane, cycles), lane=lane)
        start = time.perf_counter()
        system.run(cycles)
        best = max(best, cycles / (time.perf_counter() - start))
    return best


def _native_rejected(batch: int, cycles: int = 2_000,
                     repeats: int = 3) -> float:
    """Best-of-*repeats* cycles/s of a lane ring running a first-order
    IIR, which the native rung rejects, through ``RingSystem.run``."""
    ring = Ring(RingGeometry(layers=2, width=2), backend="batch",
                batch_size=batch)
    best = 0.0
    for _ in range(repeats):
        ring.reset()
        system = build_first_order_iir(3, -1, ring=ring)
        for lane in range(batch):
            system.data.stream(0, _lane_words(lane, cycles), lane=lane)
        start = time.perf_counter()
        system.run(cycles)
        best = max(best, cycles / (time.perf_counter() - start))
    assert ring.native_cycles == 0 and ring.macro_cycles > 0
    return best


def _measure() -> dict:
    cycles = 3_000
    points = {}

    ring = _fir_ring(backend="interpreter")
    ring.run(4, host_in=_host_zero)
    points["interpreter"] = (_cycles_per_second(ring, cycles), 1)

    ring = _fir_ring()
    ring.run(4, host_in=_host_zero)
    points["fastpath"] = (rung_cycles_per_second(
        ring, "fastpath", cycles, host_in=_host_zero), 1)

    ring = _fir_ring()
    ring.run(4, host_in=_host_zero)
    points["native"] = (_cycles_per_second(ring, cycles), 1)
    assert ring.native_cycles > 0

    for batch in (1, 8, BATCH):
        ring = _fir_ring(backend="batch", batch_size=batch)
        ring.run(4, host_in=_host_zero)
        points[f"batch_{batch}"] = (_cycles_per_second(ring, cycles), batch)
        assert ring.native_cycles > 0
    return points


def _slow_corners() -> dict:
    """Recorded, not gated (see the module docstring)."""
    return {
        f"controller_stepped_{BATCH}": (_controller_stepped(BATCH), BATCH),
        f"native_rejected_iir_{BATCH}": (_native_rejected(BATCH), BATCH),
    }


def test_batch32_beats_scalar_fastpath_aggregate():
    points = _measure()
    corners = _slow_corners()
    fastpath_rate = points["fastpath"][0] * points["fastpath"][1]

    def lane_rate(name: str) -> float:
        rate, lanes = points[name]
        return rate * lanes

    emit(render_table(
        ["operating point", "cyc/s", "lanes", "lane-cyc/s", "vs fastpath"],
        [[name, f"{rate:,.0f}", str(lanes), f"{rate * lanes:,.0f}",
          f"{rate * lanes / fastpath_rate:.1f}x"]
         for name, (rate, lanes) in {**points, **corners}.items()],
        title="8-tap FIR multi-stream throughput (last two: not gated)",
    ))

    speedup = lane_rate(f"batch_{BATCH}") / fastpath_rate
    assert speedup >= TARGET_BATCH_SPEEDUP, (
        f"batch-{BATCH} sustained only {speedup:.2f}x the scalar "
        f"per-cycle plan's aggregate throughput (target "
        f"{TARGET_BATCH_SPEEDUP}x)"
    )

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "batch_throughput",
        "fabric": f"Ring-{len(_TAPS) * 2} spatial FIR ({len(_TAPS)} taps)",
        "batch": BATCH,
        "cycles_per_second": {
            name: round(rate) for name, (rate, _) in points.items()},
        "lane_cycles_per_second": {
            name: round(rate * lanes)
            for name, (rate, lanes) in points.items()},
        "batch32_aggregate_speedup_vs_fastpath": round(speedup, 2),
        "target_speedup": TARGET_BATCH_SPEEDUP,
        "ungated_lane_cycles_per_second": {
            name: round(rate * lanes)
            for name, (rate, lanes) in corners.items()},
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
