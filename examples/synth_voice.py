#!/usr/bin/env python
"""Synth voice: a polyphonic pipeline that context-switches the fabric.

One 13x4 ring plays a two-oscillator synth voice by time-multiplexing
two configuration planes mid-stream:

* plane A — two NCOs (phase accumulator + parabolic sine shaper), a VCA
  per oscillator driven by the streamed envelope, a 2-voice mixer and a
  master gain stage;
* plane B — a feedback echo running on the ring's own FIFO closure
  (delay = ring depth, no extra memory).

The host swaps planes every chunk with ``ConfigMemory.apply_plane``, one
bulk write of a plane decoded once; the plan cache re-adopts each plane
by its precomputed configuration fingerprint, so after
the first A/B round the churn costs **zero** recompiles and zero
interpreted cycles.  The wet output is bit-exact against the pure-NumPy
golden model regardless of chunk size.

Run:  python examples/synth_voice.py
"""

from repro.analysis import render_table
from repro.core.ring import Ring
from repro.kernels import reference
from repro.kernels.scenarios import SYNTH_GEOMETRY, run_synth_voice

FCW_A, FCW_B = 1400, 1750       # detuned oscillator pair
ECHO_GAIN = 22000               # feedback echo, ~0.67 regeneration


def main() -> None:
    # Attack/decay envelope, 96 samples.
    envelope = ([min(32767, 700 * n) for n in range(48)] +
                [max(0, 32767 - 1100 * n) for n in range(48)])

    ring = Ring(SYNTH_GEOMETRY)
    result = run_synth_voice(envelope, FCW_A, FCW_B, ECHO_GAIN, chunk=24,
                             ring=ring)

    golden = reference.synth_voice_pipeline(
        envelope, FCW_A, FCW_B, SYNTH_GEOMETRY.layers, ECHO_GAIN)
    assert result.outputs == golden, "fabric diverged from golden model"

    print(f"synth voice on a {SYNTH_GEOMETRY.layers}x"
          f"{SYNTH_GEOMETRY.width} ring, two planes, chunk=24")
    print(f"  dry (osc+VCA+mix) : {result.stage_outputs[:8]} ...")
    print(f"  wet (echo)        : {result.outputs[:8]} ...")
    print("  bit-exact vs NumPy golden: yes\n")

    print(render_table(
        ["metric", "value"],
        [["samples rendered", len(result.outputs)],
         ["fabric cycles", result.cycles],
         ["plane switches", result.switches],
         ["plan compiles", result.plan_compiles],
         ["plan cache re-adoptions", result.plan_hits]],
        title="reconfiguration churn (plan cache)"))
    print("\nTwo compiles total — one per plane; every later switch is a "
          "cache re-adoption.")


if __name__ == "__main__":
    main()
