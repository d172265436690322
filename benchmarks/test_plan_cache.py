"""Plan cache under reconfiguration churn + macro kernel throughput.

Two perf claims from the plan-cache work are pinned here:

1. **Churn**: a workload that hardware-multiplexes between two known
   contexts every few cycles pays a full plan compile per switch with
   the cache disabled, but only a fingerprint lookup with it enabled.
   The acceptance floor is 5x cycles/s cache-on vs cache-off, measured
   on rings pinned to the per-cycle plan.  The same loop on a default
   ring, which climbs the compiled ladder itself, is recorded beside it
   (not gated).
2. **Macro fusion**: on a steady-state FIR the fused macro kernel (one
   period of straight-line generated source per Python dispatch) must
   beat the per-cycle plan.  Both kernels are compiled and run
   directly.

Everything lands in ``BENCH_plancache.json`` so CI archives a perf
data point per PR.  Run with ``pytest -s benchmarks/test_plan_cache.py``
for the tables.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro import word
from repro.analysis import render_table
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.kernels.fir import build_spatial_fir
from tests.rungs import PinnedRing, rung_cycles_per_second

#: Acceptance floor: churn cycles/s with the plan cache enabled over the
#: cache-disabled recompile-on-every-switch baseline.  Measured ratios
#: are typically ~8x; 5x keeps the assertion robust on loaded CI.
TARGET_CHURN_SPEEDUP = 5.0

#: Cycles run in each context before switching to the other one.
CHURN_SPAN = 8

#: The rungs swept on the steady-state FIR: the per-cycle plan
#: ("fastpath") and the fused macro kernel.
STEADY_RUNGS = ("fastpath", "macro")

#: Where the recorded numbers land (repo root, picked up by CI artifacts).
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_plancache.json"

_TAPS = [3, -1, 4, 1, -5, 9, 2, -6]


def _fir_ring(pinned: bool = True, **kwargs) -> Ring:
    """The FIR ring, pinned to the per-cycle plan unless *pinned* is
    False (a default ring on the compiled ladder)."""
    geometry = RingGeometry(layers=len(_TAPS), width=2)
    ring = (PinnedRing(geometry, "fastpath", **kwargs) if pinned
            else Ring(geometry, **kwargs))
    build_spatial_fir(_TAPS, ring=ring)
    return ring


def _host_zero(channel: int) -> int:
    return 0


def _switch_context(ring: Ring, which: int) -> None:
    """Flip the final accumulate tap between two coefficient sets.

    A one-word rewrite is exactly the paper's hardware-multiplexing
    move: the fabric alternates between two full-function contexts, and
    each rewrite invalidates the active plan.
    """
    coeff = word.from_signed(9 if which else -9)
    ring.config.write_microword(
        len(_TAPS) - 1, 1,
        MicroWord(Opcode.MADD, Source.rp(1, 1), Source.IN2, dst=Dest.OUT,
                  imm=coeff))


def _churn_cycles_per_second(cache: int, pinned: bool = True,
                             rounds: int = 150,
                             repeats: int = 3) -> tuple[float, int]:
    """Best-of-*repeats* throughput of an A/B context-switch loop.

    Returns (cycles/s, plan compiles over the whole run) — the compile
    count is the direct evidence of what the cache saves.
    """
    ring = _fir_ring(pinned, plan_cache=cache)
    for which in (0, 1):   # warm both contexts (and the cache, if any)
        _switch_context(ring, which)
        ring.run(CHURN_SPAN, host_in=_host_zero)
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            for which in (0, 1):
                _switch_context(ring, which)
                ring.run(CHURN_SPAN, host_in=_host_zero)
        elapsed = time.perf_counter() - start
        best = max(best, rounds * 2 * CHURN_SPAN / elapsed)
    return best, ring.plan_compiles


def _steady_cycles_per_second(rung: str, cycles: int = 20_000) -> float:
    ring = _fir_ring()
    ring.run(4, host_in=_host_zero)
    rate = rung_cycles_per_second(ring, rung, cycles, host_in=_host_zero)
    if rung == "macro":
        assert ring.macro_cycles > 0, "fusion must actually engage"
    return rate


def test_plan_cache_and_macro_step_throughput():
    churn_off, compiles_off = _churn_cycles_per_second(cache=0)
    churn_on, compiles_on = _churn_cycles_per_second(cache=8)
    churn_speedup = churn_on / churn_off
    ladder_off, _ = _churn_cycles_per_second(cache=0, pinned=False)
    ladder_on, _ = _churn_cycles_per_second(cache=8, pinned=False)

    emit(render_table(
        ["ring", "plan cache", "cyc/s", "plan compiles", "speedup"],
        [["per-cycle plan", "off (0)", f"{churn_off:,.0f}",
          str(compiles_off), "1.0x"],
         ["per-cycle plan", "on (8)", f"{churn_on:,.0f}",
          str(compiles_on), f"{churn_speedup:.1f}x"],
         ["default ladder", "off (0)", f"{ladder_off:,.0f}", "",
          f"{ladder_off / churn_off:.1f}x"],
         ["default ladder", "on (8)", f"{ladder_on:,.0f}", "",
          f"{ladder_on / churn_off:.1f}x"]],
        title=f"A/B reconfiguration churn (switch every {CHURN_SPAN} "
              f"cycles)",
    ))

    rates = {rung: _steady_cycles_per_second(rung)
             for rung in STEADY_RUNGS}
    baseline = rates["fastpath"]
    emit(render_table(
        ["rung", "cyc/s", "vs per-cycle plan"],
        [[rung, f"{rate:,.0f}", f"{rate / baseline:.1f}x"]
         for rung, rate in rates.items()],
        title="steady-state 8-tap FIR, per-cycle plan vs macro kernel",
    ))

    assert churn_speedup >= TARGET_CHURN_SPEEDUP, (
        f"plan cache sustained only {churn_speedup:.2f}x the "
        f"cache-disabled churn throughput (target "
        f"{TARGET_CHURN_SPEEDUP}x)"
    )
    assert rates["macro"] > baseline, (
        f"the macro kernel ({rates['macro']:,.0f} cyc/s) must beat the "
        f"per-cycle plan ({baseline:,.0f} cyc/s)"
    )

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "plan_cache",
        "fabric": f"Ring-{len(_TAPS) * 2} spatial FIR ({len(_TAPS)} taps)",
        "churn_span_cycles": CHURN_SPAN,
        "churn_cycles_per_second": {
            "cache_off": round(churn_off),
            "cache_on": round(churn_on),
        },
        "churn_plan_compiles": {
            "cache_off": compiles_off,
            "cache_on": compiles_on,
        },
        "churn_speedup": round(churn_speedup, 2),
        "ladder_churn_cycles_per_second": {
            "cache_off": round(ladder_off),
            "cache_on": round(ladder_on),
        },
        "target_churn_speedup": TARGET_CHURN_SPEEDUP,
        "steady_cycles_per_second": {
            rung: round(rate) for rung, rate in rates.items()},
        "macro_speedup_vs_fastpath": round(rates["macro"] / baseline, 2),
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
