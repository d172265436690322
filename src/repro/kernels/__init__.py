"""The paper's application kernels, as reference code and fabric mappings.

Each kernel module provides (a) a bit-exact reference implementation and
(b) a mapping that configures a :class:`~repro.core.ring.Ring` /
:class:`~repro.host.system.RingSystem` to compute the same function,
returning both results and cycle counts:

* :mod:`repro.kernels.reference` — numpy/integer golden models;
* :mod:`repro.kernels.fir` — transversal FIR, spatial (one tap per layer,
  1 sample/cycle) and resource-shared (one Dnode, local mode);
* :mod:`repro.kernels.iir` — recursive filters using the SELF feedback
  path (the "RII" macro-operator of the conclusion) and the MAC
  macro-operator;
* :mod:`repro.kernels.wavelet` — the 5/3 lifting DWT of Table 2;
* :mod:`repro.kernels.motion_estimation` — the full-search block matcher
  of Table 1;
* :mod:`repro.kernels.fifo_emulation` — Dnode-as-FIFO (local mode), one
  of the paper's stand-alone macro-operators.

The DSP scenario library extends the set with audio/modem-style recipes,
each golden-modelled in :mod:`repro.kernels.reference` and registered in
the compiler's :data:`~repro.compiler.library.GRAPH_LIBRARY`:

* :mod:`repro.kernels.cordic` — shift-add CORDIC rotation/vectoring
  (branch-free sign-mask form, no multiplier);
* :mod:`repro.kernels.nco` — numerically-controlled oscillator: SELF
  phase accumulator + parabolic sine shaper, or a CORDIC backend;
* :mod:`repro.kernels.resampler` — polyphase 2x/3x integer up/down
  resamplers;
* :mod:`repro.kernels.mixer` — VCA and N-input gain mixer;
* :mod:`repro.kernels.effects` — chorus voice (feedback-pipeline delays)
  and recirculating echo through the ring closure;
* :mod:`repro.kernels.complex_ops` — same-cycle complex multiply and
  alpha-max-beta-min magnitude;
* :mod:`repro.kernels.ringmac` — one MAC Dnode time-multiplexed across N
  client dot-product streams (the RingMAC idiom);
* :mod:`repro.kernels.scenarios` — full streaming pipelines (synth
  voice, effects chain) context-switching fabric planes mid-stream;
* :mod:`repro.kernels.taps` — lane-aware tap reading shared by the
  hand-mapped kernels (correct on batch rings).
"""

from repro.kernels import reference
from repro.kernels.fir import (
    FirResult,
    build_spatial_fir,
    shared_fir,
    shared_fir_program,
    spatial_fir,
)
from repro.kernels.iir import (
    IirResult,
    biquad,
    biquad_program,
    build_first_order_iir,
    first_order_iir,
    mac_accumulate,
    reference_biquad,
)
from repro.kernels.wavelet import (
    WaveletResult,
    build_lifting_system,
    dwt53_2d_fabric,
    dwt53_2d_multilevel_fabric,
    lifting53_forward_fabric,
    wavelet_cycle_model,
)
from repro.kernels.motion_estimation import (
    FrameMotionResult,
    MotionEstimationResult,
    build_me_system,
    cycle_model as me_cycle_model,
    estimate_frame_motion,
    full_search_me,
)
from repro.kernels.dct import (
    DctResult,
    build_dct_system,
    dct8_fabric,
    dct8_float,
    dct8_reference,
)
from repro.kernels.matrix import (
    MatVecResult,
    build_matvec_system,
    matvec_fabric,
    matvec_reference,
    row_program,
)
from repro.kernels.fifo_emulation import (
    FifoPlan,
    build_delay_line,
    delay_line,
    plan_delay,
)
from repro.kernels.taps import tap_lane0
from repro.kernels.cordic import (
    CordicResult,
    compile_cordic,
    cordic_rotate_fabric,
    cordic_vector_fabric,
    rotation_graph,
    vectoring_graph,
)
from repro.kernels.nco import (
    NcoResult,
    build_nco,
    cordic_backend_graph,
    nco_fabric,
    shaper_graph,
)
from repro.kernels.resampler import (
    RESAMPLERS,
    ResampleResult,
    downsample2_fabric,
    downsample2_graph,
    downsample3_fabric,
    downsample3_graph,
    upsample2_fabric,
    upsample2_graph,
    upsample3_fabric,
    upsample3_graph,
)
from repro.kernels.mixer import (
    MIXER4_GAINS,
    MixResult,
    mixer_fabric,
    mixer_graph,
    vca_fabric,
    vca_graph,
)
from repro.kernels.effects import (
    EffectResult,
    build_echo,
    chorus_fabric,
    chorus_graph,
    echo_fabric,
)
from repro.kernels.complex_ops import (
    ComplexResult,
    cmag_fabric,
    cmag_graph,
    cmul4_graph,
    cmul_fabric,
)
from repro.kernels.ringmac import (
    RingMacResult,
    build_ringmac,
    ringmac_fabric,
    ringmac_program,
)
from repro.kernels.scenarios import (
    ScenarioResult,
    run_effects_chain,
    run_synth_voice,
)

__all__ = [
    "reference",
    "FirResult",
    "build_spatial_fir",
    "shared_fir",
    "shared_fir_program",
    "spatial_fir",
    "IirResult",
    "biquad",
    "biquad_program",
    "build_first_order_iir",
    "first_order_iir",
    "mac_accumulate",
    "reference_biquad",
    "WaveletResult",
    "build_lifting_system",
    "dwt53_2d_fabric",
    "dwt53_2d_multilevel_fabric",
    "lifting53_forward_fabric",
    "wavelet_cycle_model",
    "FrameMotionResult",
    "MotionEstimationResult",
    "build_me_system",
    "me_cycle_model",
    "estimate_frame_motion",
    "full_search_me",
    "DctResult",
    "build_dct_system",
    "dct8_fabric",
    "dct8_float",
    "dct8_reference",
    "MatVecResult",
    "build_matvec_system",
    "matvec_fabric",
    "matvec_reference",
    "row_program",
    "FifoPlan",
    "build_delay_line",
    "delay_line",
    "plan_delay",
    "tap_lane0",
    "CordicResult",
    "compile_cordic",
    "cordic_rotate_fabric",
    "cordic_vector_fabric",
    "rotation_graph",
    "vectoring_graph",
    "NcoResult",
    "build_nco",
    "cordic_backend_graph",
    "nco_fabric",
    "shaper_graph",
    "RESAMPLERS",
    "ResampleResult",
    "downsample2_fabric",
    "downsample2_graph",
    "downsample3_fabric",
    "downsample3_graph",
    "upsample2_fabric",
    "upsample2_graph",
    "upsample3_fabric",
    "upsample3_graph",
    "MIXER4_GAINS",
    "MixResult",
    "mixer_fabric",
    "mixer_graph",
    "vca_fabric",
    "vca_graph",
    "EffectResult",
    "build_echo",
    "chorus_fabric",
    "chorus_graph",
    "echo_fabric",
    "ComplexResult",
    "cmag_fabric",
    "cmag_graph",
    "cmul4_graph",
    "cmul_fabric",
    "RingMacResult",
    "build_ringmac",
    "ringmac_fabric",
    "ringmac_program",
    "ScenarioResult",
    "run_effects_chain",
    "run_synth_voice",
]
