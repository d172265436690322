"""Robustness-layer cost model: checkpoint overhead + campaign smoke.

Two numbers are pinned here:

1. **Checkpoint overhead**: running a steady-state FIR under
   ``CheckpointManager`` (interval 256) must cost no more than 15% of
   plain fast-path throughput, as the median over alternating
   plain/checkpointed pairs.  Snapshots are cheap relative to the
   compiled inner loop, and this assertion keeps them that way.
2. **Campaign determinism**: a pinned-seed :class:`FaultCampaign` must
   reproduce the exact same summary every run — injected/detected/
   recovered/masked counts are recorded so a behaviour change in the
   fault models shows up as a JSON diff in CI artifacts.

Everything lands in ``BENCH_robustness.json``.  Run with
``pytest -s benchmarks/test_robustness.py`` for the tables.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import List, Tuple

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.core.ring import Ring, RingGeometry
from repro.kernels.fir import build_spatial_fir
from repro.robustness import CheckpointManager, FaultCampaign

#: Acceptance ceiling: fractional throughput cost of interval-256
#: checkpointing on the fast path.  Measured overhead is typically ~5%;
#: 15% keeps the assertion robust on loaded CI.
MAX_CHECKPOINT_OVERHEAD = 0.15

CHECKPOINT_EVERY = 256
STEADY_CYCLES = 20_000

#: Alternating plain/checkpointed measurement pairs; the gate reads the
#: median per-pair overhead, which one noisy run cannot move.
PAIRS = 10

#: Pinned campaign shape — change these and the recorded summary moves.
CAMPAIGN_SEED = 2002  # DATE 2002
CAMPAIGN_CYCLES = 48
CAMPAIGN_TRIALS = 12

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_robustness.json"

_TAPS = [3, -1, 4, 1, -5, 9, 2, -6]


def _fir_ring(**kwargs) -> Ring:
    ring = Ring(RingGeometry(layers=len(_TAPS), width=2), **kwargs)
    build_spatial_fir(_TAPS, ring=ring)
    return ring


def _driver(ring: Ring, cycle: int) -> None:
    ring.step(host_in=lambda channel: cycle & 0xFF)


def _plain_cycles_per_second() -> float:
    ring = _fir_ring()
    ring.run(4, host_in=lambda ch: 0)
    start = time.perf_counter()
    for cycle in range(STEADY_CYCLES):
        _driver(ring, cycle)
    return STEADY_CYCLES / (time.perf_counter() - start)


def _checkpointed_cycles_per_second() -> float:
    ring = _fir_ring()
    ring.run(4, host_in=lambda ch: 0)
    manager = CheckpointManager(ring, every=CHECKPOINT_EVERY,
                                driver=_driver, keep=2)
    start = time.perf_counter()
    manager.run(STEADY_CYCLES)
    rate = STEADY_CYCLES / (time.perf_counter() - start)
    assert ring.checkpoints >= STEADY_CYCLES // CHECKPOINT_EVERY
    return rate


def _overhead_pairs() -> List[Tuple[float, float]]:
    """PAIRS (plain, checkpointed) rates, run back to back with the
    order alternating, so host drift hits both sides of a pair alike."""
    pairs = []
    for index in range(PAIRS):
        if index % 2:
            checkpointed = _checkpointed_cycles_per_second()
            plain = _plain_cycles_per_second()
        else:
            plain = _plain_cycles_per_second()
            checkpointed = _checkpointed_cycles_per_second()
        pairs.append((plain, checkpointed))
    return pairs


def _campaign_factory() -> Ring:
    return _fir_ring()


def test_checkpoint_overhead_and_campaign_smoke():
    pairs = _overhead_pairs()
    overhead = statistics.median(1.0 - c / p for p, c in pairs)
    plain = statistics.median(p for p, _ in pairs)
    checkpointed = statistics.median(c for _, c in pairs)

    emit(render_table(
        ["mode", "cyc/s", "overhead"],
        [["fast path", f"{plain:,.0f}", "--"],
         [f"+ checkpoint/{CHECKPOINT_EVERY}", f"{checkpointed:,.0f}",
          f"{overhead * 100.0:.1f}%"]],
        title=f"steady-state {len(_TAPS)}-tap FIR checkpoint overhead "
              f"(medians of {PAIRS} alternating pairs)",
    ))

    campaign = FaultCampaign(_campaign_factory, cycles=CAMPAIGN_CYCLES,
                             checkpoint_every=8, seed=CAMPAIGN_SEED,
                             trials=CAMPAIGN_TRIALS)
    result = campaign.run()
    summary = result.summary()

    emit(render_table(
        ["injected", "detected", "recovered", "masked"],
        [[str(summary["injected"]), str(summary["detected"]),
          str(summary["recovered"]), str(summary["masked"])]],
        title=f"fault campaign (seed {CAMPAIGN_SEED}, "
              f"{CAMPAIGN_TRIALS} trials x {CAMPAIGN_CYCLES} cycles)",
    ))

    assert overhead <= MAX_CHECKPOINT_OVERHEAD, (
        f"interval-{CHECKPOINT_EVERY} checkpointing cost a median "
        f"{overhead * 100.0:.1f}% of fast-path throughput over {PAIRS} "
        f"pairs (ceiling "
        f"{MAX_CHECKPOINT_OVERHEAD * 100.0:.0f}%)"
    )
    assert result.all_recovered, "campaign left an unrecovered fault"
    assert summary["detected"] > 0, "campaign never landed a visible fault"

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "robustness",
        "fabric": f"Ring-{len(_TAPS) * 2} spatial FIR ({len(_TAPS)} taps)",
        "checkpoint_every": CHECKPOINT_EVERY,
        "steady_cycles_per_second": {
            "fastpath": round(plain),
            "checkpointed": round(checkpointed),
        },
        "pairs": PAIRS,
        "checkpoint_overhead_percent": round(overhead * 100.0, 2),
        "max_checkpoint_overhead_percent":
            MAX_CHECKPOINT_OVERHEAD * 100.0,
        "campaign": {
            "seed": CAMPAIGN_SEED,
            "cycles": CAMPAIGN_CYCLES,
            "trials": CAMPAIGN_TRIALS,
            **summary,
        },
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
