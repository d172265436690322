"""Scenario-library benchmark: recipe throughput + reconfiguration churn.

Two measurements, recorded in ``BENCH_scenarios.json`` for CI artifacts:

* **per-kernel engine sweep** — steady-state fabric cycles/s for a
  representative slice of the scenario library (hand-mapped NCO and
  echo, compiled resampler/mixer/magnitude/CORDIC) on the interpreter,
  the per-cycle plan, the compiled ladder (native first) and the macro
  kernel — the per-cycle plan and macro columns on rings pinned to that
  rung (:class:`tests.rungs.PinnedRing`);
* **reconfiguration churn** — end-to-end samples/s of the two
  plane-switching pipelines (synth voice, effects chain) across chunk
  sizes, with the plan-cache telemetry that proves steady-state churn
  costs zero plan compiles (2 compiles total, one per plane, no matter
  how many switches);
* **plane-switch gate** — the synth voice at chunk 32 (60 plane switches
  per 960 samples) must run within :data:`TARGET_CHUNK32_VS_480` of its
  per-sample time at chunk 480 (4 switches).  Both sides run in this
  process, alternating, so host speed cancels out of the ratio.

Run with ``pytest -s benchmarks/test_scenarios.py`` for the tables.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.compiler.codegen import compile_graph
from repro.compiler.library import build_graph
from repro.core.ring import Ring, RingGeometry
from repro.kernels.effects import build_echo
from repro.kernels.nco import NCO_LAYERS, build_nco
from repro.kernels.scenarios import (EFFECTS_GEOMETRY, SYNTH_GEOMETRY,
                                     run_effects_chain, run_synth_voice)
from tests.rungs import make_ring

#: Where the recorded numbers land (repo root, picked up by CI artifacts).
BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_scenarios.json"

#: Engine sweep for the per-kernel table (lane rings are covered by
#: ``BENCH_batch.json`` on their own terms).
ENGINES = {
    "interpreter": {"backend": "interpreter"},
    "fastpath": {"rung": "fastpath"},
    "native": {},
    "macro": {"rung": "macro"},
}

#: Acceptance floor: the per-cycle plan over the interpreter on the
#: hand-mapped NCO.  Real ratios are far higher; the floor only guards
#: against the plan silently falling back to interpretation.
TARGET_NCO_FASTPATH_SPEEDUP = 1.5

_MEASURE_CYCLES = 2_000

#: Ceiling on the synth voice's per-sample time at chunk 32 over chunk
#: 480 (same 960 samples, so the ratio of job times): a plane switch
#: must cost about as much as the few dozen cycles around it, not more.
TARGET_CHUNK32_VS_480 = 2.0

#: Alternating chunk-32/chunk-480 runs per side; the gate compares their
#: medians.
_CHURN_RUNS = 5


def _host_zero(channel: int) -> int:
    return 0


def _cycles_per_second(ring: Ring, cycles: int = _MEASURE_CYCLES,
                       repeats: int = 3) -> float:
    ring.run(8, host_in=_host_zero)          # engage engine, warm plans
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        ring.run(cycles, host_in=_host_zero)
        best = max(best, cycles / (time.perf_counter() - start))
    return best


def _kernel_rings():
    """name -> engine_kwargs -> configured ring, for the sweep."""
    def nco_ring(kwargs):
        ring = make_ring(RingGeometry(layers=NCO_LAYERS, width=2),
                         **kwargs)
        build_nco(1873, ring=ring)
        return ring

    def echo_ring(kwargs):
        ring = make_ring(RingGeometry(layers=8, width=2), **kwargs)
        build_echo(22000, ring=ring)
        return ring

    def compiled(name):
        program = compile_graph(build_graph(name))

        def make(kwargs):
            ring = make_ring(program.geometry, **kwargs)
            program.configure(ring)
            return ring
        return make

    return {
        "nco": nco_ring,
        "echo8": echo_ring,
        "up2": compiled("up2"),
        "mixer4": compiled("mixer4"),
        "cmag": compiled("cmag"),
        "cordic4": compiled("cordic4"),
    }


def _chunk_ratio(envelope) -> dict:
    """Median synth-voice job time at chunk 32 and at chunk 480."""
    rings = {chunk: Ring(SYNTH_GEOMETRY) for chunk in (32, 480)}
    seconds = {chunk: [] for chunk in rings}

    def job(chunk: int) -> float:
        ring = rings[chunk]
        ring.reset()
        start = time.perf_counter()
        run_synth_voice(envelope, chunk=chunk, ring=ring)
        return time.perf_counter() - start

    for chunk in rings:      # planes built, plans compiled, kernels cached
        job(chunk)
    for index in range(_CHURN_RUNS):
        order = (32, 480) if index % 2 == 0 else (480, 32)
        for chunk in order:
            seconds[chunk].append(job(chunk))
    medians = {chunk: statistics.median(runs)
               for chunk, runs in seconds.items()}
    return {
        "chunk32_ms": round(medians[32] * 1e3, 3),
        "chunk480_ms": round(medians[480] * 1e3, 3),
        "ratio": round(medians[32] / medians[480], 3),
        "runs_per_side": _CHURN_RUNS,
        "target": TARGET_CHUNK32_VS_480,
    }


def test_scenario_kernel_engine_sweep_and_pipeline_churn():
    kernels = {}
    for name, make in _kernel_rings().items():
        kernels[name] = {
            engine: round(_cycles_per_second(make(dict(kwargs))))
            for engine, kwargs in ENGINES.items()
        }

    emit(render_table(
        ["kernel"] + list(ENGINES),
        [[name] + [f"{kernels[name][e]:,}" for e in ENGINES]
         for name in kernels],
        title="scenario kernels: fabric cycles/s per engine",
    ))

    nco_speedup = kernels["nco"]["fastpath"] / kernels["nco"]["interpreter"]
    assert nco_speedup >= TARGET_NCO_FASTPATH_SPEEDUP, (
        f"NCO per-cycle plan sustained only {nco_speedup:.2f}x the "
        f"interpreter (target {TARGET_NCO_FASTPATH_SPEEDUP}x)"
    )

    envelope = [min(32767, 500 * (n % 80)) for n in range(960)]
    signal = [((7 * n + 11) % 120) - 60 for n in range(960)]
    pipelines = {}
    for chunk in (32, 96, 480):
        ring = Ring(SYNTH_GEOMETRY)
        start = time.perf_counter()
        synth = run_synth_voice(envelope, chunk=chunk, ring=ring)
        synth_elapsed = time.perf_counter() - start
        assert synth.plan_compiles == 2   # one per plane, ever

        ring = Ring(EFFECTS_GEOMETRY)
        start = time.perf_counter()
        effects = run_effects_chain(signal, chunk=chunk, ring=ring)
        effects_elapsed = time.perf_counter() - start
        assert effects.plan_compiles == 2

        pipelines[str(chunk)] = {
            "synth_voice": {
                "samples_per_second": round(
                    len(envelope) / synth_elapsed),
                "switches": synth.switches,
                "plan_hits": synth.plan_hits,
                "plan_compiles": synth.plan_compiles,
            },
            "effects_chain": {
                "samples_per_second": round(
                    len(signal) / effects_elapsed),
                "switches": effects.switches,
                "plan_hits": effects.plan_hits,
                "plan_compiles": effects.plan_compiles,
            },
        }

    churn_gate = _chunk_ratio(envelope)
    emit(f"synth voice chunk 32 vs 480: {churn_gate['ratio']:.2f}x per "
         f"sample ({churn_gate['chunk32_ms']} vs "
         f"{churn_gate['chunk480_ms']} ms, median of "
         f"{_CHURN_RUNS} alternating runs; ceiling "
         f"{TARGET_CHUNK32_VS_480}x)")

    emit(render_table(
        ["chunk", "pipeline", "samples/s", "switches", "plan hits",
         "compiles"],
        [[chunk, name,
          f"{stats['samples_per_second']:,}", str(stats["switches"]),
          str(stats["plan_hits"]), str(stats["plan_compiles"])]
         for chunk, per in pipelines.items()
         for name, stats in per.items()],
        title="reconfiguration churn: plane-switching pipelines",
    ))

    BENCH_PATH.write_text(json.dumps({
        "benchmark": "scenario_library",
        "measure_cycles": _MEASURE_CYCLES,
        "kernel_cycles_per_second": kernels,
        "nco_fastpath_speedup_vs_interpreter": round(nco_speedup, 2),
        "target_nco_fastpath_speedup": TARGET_NCO_FASTPATH_SPEEDUP,
        "pipeline_churn": pipelines,
        "synth_chunk32_vs_480": churn_gate,
    }, indent=2) + "\n")
    emit(f"wrote {BENCH_PATH.name}")
    assert churn_gate["ratio"] <= TARGET_CHUNK32_VS_480, (
        f"synth voice at chunk 32 took {churn_gate['ratio']:.2f}x the "
        f"per-sample time of chunk 480 (ceiling "
        f"{TARGET_CHUNK32_VS_480}x): plane switches got expensive")
