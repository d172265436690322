"""Native macro-kernel tier throughput on the steady-state Ring-16.

The tier's perf claim: once a steady-state window is compiled to a
time-vectorized NumPy program, advancing T cycles costs a *fixed*
number of array operations, so cycles/s should leave the per-cycle
engines behind by an order of magnitude on plan-friendly fabrics.  The
acceptance floor is 5x the scalar per-cycle plan on a Ring-16
feed-forward MADD chain (measured ratios are far higher; 5x keeps CI
robust), with the macro kernel included in the sweep for context.  Each
rung's kernel is compiled and run directly.

Results land in ``BENCH_native.json`` so CI archives a perf data point
per PR.  Run with ``pytest -s benchmarks/test_native_throughput.py``
for the table.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.core import nativepath
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.core.switch import PortSource
from tests.rungs import rung_cycles_per_second

#: Acceptance floor: native cycles/s over the scalar per-cycle plan on
#: the steady-state Ring-16 chain.
TARGET_NATIVE_SPEEDUP = 5.0

#: Cycles per timed run and timing repeats (best-of).
CYCLES = 200_000
REPEATS = 3

#: Where the recorded numbers land (repo root, picked up by CI).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_native.json"

BUS = 7


def _ring16(**kwargs) -> Ring:
    """Ring-16 feed-forward MADD chain: layer 0 scales the bus word,
    layers 1..7 multiply-accumulate the upstream value against a
    2-cycle-old feedback tap — every Dnode busy, no ring-wrap cycle,
    so the configuration is native-eligible at period 1."""
    ring = Ring(RingGeometry.ring(16), **kwargs)
    width = ring.geometry.width
    for p in range(width):
        ring.config.write_microword(0, p, MicroWord(
            Opcode.MUL, Source.BUS, Source.IMM, Dest.OUT, imm=3 + p))
    for k in range(1, ring.geometry.layers):
        for p in range(width):
            ring.config.write_switch_route(k, p, 1, PortSource.up(p))
            ring.config.write_microword(k, p, MicroWord(
                Opcode.MADD, Source.IN1, Source.IN2, Dest.OUT, imm=2))
            ring.config.write_switch_route(
                k, p, 2, PortSource.rp(2, p + 1))
    return ring


def _cycles_per_second(ring: Ring, rung: str) -> float:
    ring.run(4, bus=BUS)  # settle outside the timed region
    return rung_cycles_per_second(ring, rung, CYCLES, bus=BUS,
                                  repeats=REPEATS)


def test_native_throughput_vs_per_cycle_engines():
    engines = {rung: _ring16() for rung in ("fastpath", "macro", "native")}
    rates = {rung: _cycles_per_second(ring, rung)
             for rung, ring in engines.items()}

    native_ring = engines["native"]
    assert native_ring.native_cycles >= REPEATS * CYCLES, (
        "the chain is eligible end-to-end; every timed cycle is native"
    )
    # Same cycle count on every engine -> identical architectural state.
    want = state_digest(engines["fastpath"])
    assert state_digest(native_ring) == want
    assert state_digest(engines["macro"]) == want
    probe = nativepath.compile_native(_ring16())
    probe.run(probe.period, BUS, None)

    baseline = rates["fastpath"]
    speedup = rates["native"] / baseline
    emit(render_table(
        ["rung", "cyc/s", "vs per-cycle plan"],
        [[name, f"{rate:,.0f}", f"{rate / baseline:.1f}x"]
         for name, rate in rates.items()],
        title=f"steady-state Ring-16 MADD chain, {CYCLES:,} cycles "
              f"(best of {REPEATS})",
    ))

    BENCH_PATH.write_text(json.dumps({
        "workload": "ring16-madd-chain-steady-state",
        "cycles": CYCLES,
        "cycles_per_second": {k: round(v) for k, v in rates.items()},
        "native_speedup_vs_fastpath": round(speedup, 2),
        "target_speedup": TARGET_NATIVE_SPEEDUP,
        "native_cycles": native_ring.native_cycles,
        "numba_jit_active": probe.jit_active(),
        "numba_available": nativepath.numba_available(),
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")

    assert speedup >= TARGET_NATIVE_SPEEDUP, (
        f"native tier sustained only {speedup:.2f}x the scalar "
        f"per-cycle plan (target {TARGET_NATIVE_SPEEDUP}x)"
    )
