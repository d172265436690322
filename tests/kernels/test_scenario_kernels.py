"""Directed golden tests for the DSP scenario library.

Every recipe runs against its NumPy/integer golden model from
:mod:`repro.kernels.reference` on the default engine, plus placement
variants (mode x lane order) where the mapping space is meaningful, plus
regression tests for the lane-indexing drift the library fix closed
(``tap.samples`` on batch rings returned lane *arrays*, not samples).
"""

from __future__ import annotations

import pytest

from repro.compiler.codegen import compile_graph
from repro.compiler.graph import CompileError
from repro.core.ring import Ring, RingGeometry
from repro.kernels import reference
from repro.kernels.complex_ops import cmag_fabric, cmul_fabric
from repro.kernels.cordic import (compile_cordic, cordic_rotate_fabric,
                                  cordic_vector_fabric)
from repro.kernels.effects import build_echo, chorus_fabric, echo_fabric
from repro.kernels.fifo_emulation import delay_line
from repro.kernels.fir import spatial_fir
from repro.kernels.iir import first_order_iir
from repro.kernels.mixer import (MIXER4_GAINS, mixer_fabric, mixer_graph,
                                 vca_fabric)
from repro.kernels.nco import (NCO_LATENCY, cordic_backend_graph,
                               nco_fabric, shaper_graph)
from repro.kernels.resampler import RESAMPLERS
from repro.kernels.ringmac import (MAX_CLIENTS, build_ringmac,
                                   ringmac_fabric, ringmac_program)
from repro.kernels.scenarios import run_effects_chain, run_synth_voice


def _signal(length, spread=60, stride=7):
    return [((stride * i + 11) % (2 * spread)) - spread
            for i in range(length)]


#: Placement variants exercised on the compiled recipes: every mode, and
#: the lane orders that reshuffle delayed-operand placements.
VARIANTS = [
    {"mode": "global"},
    {"mode": "local"},
    {"mode": "hybrid"},
    {"lane_order": "reverse"},
    {"lane_order": "delay-first"},
]


class TestCordic:
    def test_rotate_matches_reference(self):
        xs = _signal(16, spread=9000, stride=997)
        ys = _signal(16, spread=9000, stride=641)
        zs = _signal(16, spread=8192, stride=1303)
        result = cordic_rotate_fabric(xs, ys, zs, iterations=6)
        want = [reference.cordic_rotate(x, y, z, 6)
                for x, y, z in zip(xs, ys, zs)]
        assert (result.x, result.y, result.z) == \
            tuple(map(list, zip(*want)))

    def test_vector_matches_reference(self):
        xs = _signal(16, spread=9000, stride=733)
        ys = _signal(16, spread=9000, stride=389)
        result = cordic_vector_fabric(xs, ys, iterations=6)
        want = [reference.cordic_vector(x, y, 0, 6)
                for x, y in zip(xs, ys)]
        assert (result.x, result.y, result.z) == \
            tuple(map(list, zip(*want)))

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: "-".join(
                                 f"{k}={val}" for k, val in v.items()))
    def test_rotate_placement_variants(self, variant):
        xs, ys, zs = ([5000, -4000, 300], [-2500, 1200, -700],
                      [9000, -12000, 4096])
        result = cordic_rotate_fabric(xs, ys, zs, iterations=4, **variant)
        want = [reference.cordic_rotate(x, y, z, 4)
                for x, y, z in zip(xs, ys, zs)]
        assert (result.x, result.y, result.z) == \
            tuple(map(list, zip(*want)))

    def test_compile_cordic_modes(self):
        assert compile_cordic("rotate", 4).dnodes_used > 0
        assert compile_cordic("vector", 4).dnodes_used > 0
        with pytest.raises(CompileError):
            compile_cordic("spin", 4)
        with pytest.raises(CompileError):
            compile_cordic("rotate", 0)


class TestNco:
    def test_matches_reference(self):
        result = nco_fabric(1873, 48)
        assert result.samples == reference.nco(1873, 48)

    def test_phase_seed(self):
        result = nco_fabric(500, 32, phase=12345)
        assert result.samples == reference.nco(500, 32, phase=12345)

    def test_shaper_graph_matches_reference(self):
        phases = _signal(24, spread=30000, stride=2741)
        graph = shaper_graph()
        outs = compile_graph(graph).run(phases)
        assert outs[graph.outputs[0]] == \
            [reference.sine_shape(p) for p in phases]

    def test_cordic_backend_matches_reference(self):
        graph = cordic_backend_graph(iterations=6, amplitude=12000)
        phases = [(1873 * (n + 1)) % 65536 - 32768 for n in range(12)]
        outs = compile_graph(graph).run({0: phases})
        cos_out, sin_out = (outs[node] for node in graph.outputs[:2])
        want = [reference.cordic_rotate(12000, 0, p, 6) for p in phases]
        assert cos_out == [w[0] for w in want]
        assert sin_out == [w[1] for w in want]


class TestResamplers:
    REFERENCES = {
        "up2": reference.upsample2,
        "down2": reference.downsample2,
        "up3": reference.upsample3,
        "down3": reference.downsample3,
    }

    @pytest.mark.parametrize("factor", sorted(RESAMPLERS))
    def test_matches_reference(self, factor):
        signal = _signal(30, spread=800, stride=311)
        _, fabric = RESAMPLERS[factor]
        assert fabric(signal).samples == self.REFERENCES[factor](signal)

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: "-".join(
                                 f"{k}={val}" for k, val in v.items()))
    def test_up2_placement_variants(self, variant):
        signal = _signal(20, spread=500, stride=173)
        _, fabric = RESAMPLERS["up2"]
        assert fabric(signal, **variant).samples == \
            reference.upsample2(signal)

    def test_up2_dc_exact_after_warmup(self):
        # The half-band odd phase needs x[n-3]: exact from sample 3 on.
        up = RESAMPLERS["up2"][1]([100] * 16).samples
        assert all(v == 100 for v in up[6:])


class TestGainStaging:
    def test_vca_matches_reference(self):
        signal = _signal(24, spread=2000, stride=577)
        gains = [(1500 * i) % 32768 for i in range(24)]
        assert vca_fabric(signal, gains).samples == \
            reference.vca(signal, gains)

    def test_mixer_matches_reference(self):
        signals = [_signal(20, spread=1500, stride=7 + 4 * i)
                   for i in range(4)]
        assert mixer_fabric(signals).samples == \
            reference.mix(signals, MIXER4_GAINS)

    def test_mixer_arity_checks(self):
        with pytest.raises(CompileError):
            mixer_graph(())
        with pytest.raises(CompileError):
            mixer_fabric([[1, 2]], gains=(100, 200))


class TestEffects:
    @pytest.mark.parametrize("depth", [1, 3, 4, 6, 9])
    def test_chorus_matches_reference(self, depth):
        signal = _signal(30)
        assert chorus_fabric(signal, depth).samples == \
            reference.chorus(signal, depth)

    @pytest.mark.parametrize("layers,gain", [(3, 30000), (8, 22000),
                                             (13, -18000)])
    def test_echo_matches_reference(self, layers, gain):
        signal = _signal(4 * layers, spread=4000)
        assert echo_fabric(signal, gain, layers=layers).samples == \
            reference.echo(signal, layers, gain)

    def test_echo_validation(self):
        with pytest.raises(ValueError):
            build_echo(1000, layers=2)
        with pytest.raises(ValueError):
            build_echo(1000, ring=Ring(RingGeometry(4, 2)), lane=5)


class TestComplexOps:
    def test_cmul_matches_reference(self):
        a, b = _signal(20, spread=121), _signal(20, spread=144, stride=11)
        c, d = _signal(20, spread=99, stride=13), \
            _signal(20, spread=130, stride=17)
        result = cmul_fabric(a, b, c, d)
        want_re, want_im = reference.complex_multiply(a, b, c, d)
        assert result.re == want_re
        assert result.im == want_im

    def test_cmag_matches_reference(self):
        re = _signal(20, spread=5000, stride=433)
        im = _signal(20, spread=4000, stride=391)
        result = cmag_fabric(re, im)
        assert result.re == reference.complex_magnitude(re, im)
        assert result.im == []


class TestRingMac:
    @pytest.mark.parametrize("clients", [1, 2, 3, 4])
    def test_matches_reference(self, clients):
        a = [_signal(10, spread=40, stride=5 + c) for c in range(clients)]
        b = [_signal(10, spread=30, stride=3 + 2 * c)
             for c in range(clients)]
        result = ringmac_fabric(a, b)
        assert result.partials == reference.ringmac(a, b)
        assert result.totals == [p[-1] for p in reference.ringmac(a, b)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ringmac_program(MAX_CLIENTS + 1)
        with pytest.raises(ValueError):
            ringmac_fabric([[1]], [[1], [2]])
        with pytest.raises(ValueError):
            ringmac_fabric([[1, 2]], [[1]])
        with pytest.raises(ValueError):
            build_ringmac(2, ring=Ring(RingGeometry(2, 2)),
                          server_layer=0)


class TestScenarioValidation:
    def test_chunk_must_divide(self):
        with pytest.raises(ValueError):
            run_synth_voice([0] * 33, chunk=32)
        with pytest.raises(ValueError):
            run_effects_chain([0] * 10, chunk=0)

    def test_geometry_checked(self):
        with pytest.raises(ValueError):
            run_synth_voice([0] * 32, chunk=32,
                            ring=Ring(RingGeometry(5, 2)))
        with pytest.raises(ValueError):
            run_effects_chain([0] * 32, chunk=32,
                              ring=Ring(RingGeometry(10, 1)))


class TestLaneIndexingRegressions:
    """The batch tap drift: ``tap.samples`` on a batch backend is a
    list of lane arrays.  The kernels now read lane 0 explicitly; these
    pin the fixed helpers bit-identical to their scalar-engine runs."""

    SIGNAL = [((3 * n + 5) % 40) - 20 for n in range(24)]

    def _batch_ring(self, layers, width=2):
        return Ring(RingGeometry(layers, width), backend="batch",
                    batch_size=2)

    def test_spatial_fir_batch(self):
        taps = [1, 2, 3, 4]
        want = spatial_fir(taps, self.SIGNAL).outputs
        got = spatial_fir(taps, self.SIGNAL,
                          ring=self._batch_ring(4)).outputs
        assert got == want

    def test_first_order_iir_batch(self):
        want = first_order_iir(self.SIGNAL, 3, 2).outputs
        got = first_order_iir(self.SIGNAL, 3, 2,
                              ring=self._batch_ring(2)).outputs
        assert got == want

    def test_delay_line_batch(self):
        want = delay_line(self.SIGNAL, 5)
        got = delay_line(self.SIGNAL, 5, ring=self._batch_ring(8))
        assert got == want
        assert got == ([0] * 5 + self.SIGNAL)[:len(self.SIGNAL)]

    def test_compiled_program_run_batch(self):
        graph = mixer_graph((1000, 2000))
        program = compile_graph(graph)
        streams = {0: self.SIGNAL, 1: self.SIGNAL[::-1]}
        want = program.run(streams)
        ring = Ring(program.geometry, backend="batch", batch_size=2)
        assert program.run(streams, ring=ring) == want
