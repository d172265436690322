"""Hypothesis property suite for the scenario-library golden models.

The goldens in :mod:`repro.kernels.reference` are the bit-exact spec the
fabric is tested against, so their *mathematical* properties are pinned
here once, against floats and big-integer arithmetic:

* CORDIC rotation/vectoring track the real rotation within tight
  absolute bounds (gain included; the vectoring angle within a bound
  derived from the shift truncation), and the vectoring residual
  collapses;
* the half-band resampler's even phase is a perfect-reconstruction
  identity, the odd phase a bounded midpoint on band-limited signals,
  and all four factors are DC-exact after their warm-ups;
* complex multiply is the exact big-integer product wrapped mod 2^16 —
  including both INT16 boundaries;
* the NCO's parabolic shaper stays within ~5.7% of a true sine and the
  phase accumulator is exactly ``fcw * (n+1)`` wrapped.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro import word
from repro.kernels import reference

int16 = st.integers(min_value=-32768, max_value=32767)

#: Rotation-mode convergence region with comfortable margin (the mode
#: converges for |angle| <= ~18189 units of 2^16/turn).
angles = st.integers(min_value=-16000, max_value=16000)
coords = st.integers(min_value=-9000, max_value=9000)


def _wrap(v: int) -> int:
    return word.to_signed(word.from_signed(v & 0xFFFF))


def _vectoring_angle_bound(x: int, y: int, iterations: int = 12) -> float:
    """Worst-case angle error of ``cordic_vector(x, y)``, in 2^16-per-turn
    units, derived from the golden's arithmetic (for ``x > 0``).

    * Exact-arithmetic CORDIC leaves a residual of at most the last
      micro-rotation, ``atan(2^-(n-1))``.
    * The angle register adds rounded ``ATAN16`` entries: their rounding
      errors add up.
    * Iteration ``i >= 1`` floors ``x >> i`` and ``y >> i``, adding an
      error vector shorter than sqrt(2) to a vector of length at least
      ``g_(i+1) |v| - sqrt(2) K i`` (``g`` the partial CORDIC gain, the
      second term the earlier errors grown by at most ``K``).  That turns
      the vector by at most the arcsine of their ratio.  A turn can
      steer every later direction decision, so the turns of iterations
      1..n-2 add to the residual; the last iteration's error never
      reaches the angle register.

    The truncation term scales like 1/|v|: the whole bound is about 190
    units at |v| = 500 and 14 at |v| = 12,700.
    """
    units = 65536 / (2 * math.pi)
    rounding = sum(abs(reference.ATAN16[i] - math.atan(2.0 ** -i) * units)
                   for i in range(iterations))
    length = math.hypot(x, y)
    gain, turn = 1.0, 0.0
    for i in range(iterations - 1):
        gain *= math.sqrt(1 + 4.0 ** -i)
        if i >= 1:
            error = math.sqrt(2)
            reach = length * gain - error * reference.CORDIC_GAIN * i
            turn += math.asin(min(1.0, error / reach))
    residual = math.atan(2.0 ** (1 - iterations))
    return (residual + turn) * units + rounding


class TestCordicProperties:
    @given(x=coords, y=coords, z=angles)
    @settings(max_examples=200)
    def test_rotation_tracks_float_rotation(self, x, y, z):
        xr, yr, _ = reference.cordic_rotate(x, y, z, iterations=12)
        theta = 2 * math.pi * z / 65536
        k = reference.CORDIC_GAIN
        xf = k * (x * math.cos(theta) - y * math.sin(theta))
        yf = k * (x * math.sin(theta) + y * math.cos(theta))
        assert abs(xr - xf) <= 26
        assert abs(yr - yf) <= 26

    @given(x=st.integers(min_value=500, max_value=9000), y=coords)
    @example(x=500, y=-172)       # 56.8 units off: over a flat 48
    @example(x=556, y=-268)       # 65.9 units off: the sweep's largest
    @settings(max_examples=200)
    def test_vectoring_magnitude_and_angle(self, x, y):
        xr, yr, zr = reference.cordic_vector(x, y, 0, iterations=12)
        magnitude = reference.CORDIC_GAIN * math.hypot(x, y)
        angle = math.atan2(y, x) * 65536 / (2 * math.pi)
        assert abs(xr - magnitude) <= 16
        assert abs(yr) <= 24          # the residual collapses to ~0
        delta = abs(zr - angle) % 65536
        assert min(delta, 65536 - delta) <= _vectoring_angle_bound(x, y)

    @given(x=coords, y=coords, z=angles)
    @settings(max_examples=100)
    def test_zero_iterations_region_monotone(self, x, y, z):
        # More iterations never worsen the angle residual in rotation
        # mode: |z_out| shrinks (or wraps equal) as stages are added.
        _, _, z4 = reference.cordic_rotate(x, y, z, iterations=4)
        _, _, z12 = reference.cordic_rotate(x, y, z, iterations=12)
        assert abs(z12) <= abs(z4)


class TestResamplerProperties:
    @given(st.lists(int16, min_size=1, max_size=48))
    @settings(max_examples=150)
    def test_up2_even_phase_perfect_reconstruction(self, signal):
        up = reference.upsample2(signal)
        assert len(up) == 2 * len(signal)
        assert up[0::2] == [0] + signal[:-1]

    @given(st.lists(st.integers(min_value=-32, max_value=32),
                    min_size=6, max_size=48))
    @settings(max_examples=150)
    def test_up2_odd_phase_bounded_midpoint(self, deltas):
        # Band-limited (small-step) signal: the half-band interpolant
        # stays within a few LSBs of the true midpoint after warm-up.
        signal, x = [], 0
        for d in deltas:
            x = max(-20000, min(20000, x + d))
            signal.append(x)
        odd = reference.upsample2(signal)[1::2]
        for n in range(4, len(signal)):
            midpoint = (signal[n - 1] + signal[n]) / 2
            assert abs(odd[n] - midpoint) <= 48

    @given(st.integers(min_value=-2047, max_value=2047))
    def test_up2_dc_exact(self, level):
        up = reference.upsample2([level] * 12)
        assert all(v == level for v in up[6:])

    @given(st.integers(min_value=-8191, max_value=8191))
    def test_down2_dc_exact(self, level):
        down = reference.downsample2([level] * 12)
        assert all(v == level for v in down[1:])

    @given(st.integers(min_value=-127, max_value=127))
    def test_up3_down3_dc_exact(self, level):
        up = reference.upsample3([level] * 12)
        assert all(v == level for v in up[6:])
        down = reference.downsample3([level] * 12)
        assert all(v == level for v in down)

    @given(st.lists(int16, min_size=1, max_size=30))
    def test_lengths(self, signal):
        assert len(reference.upsample3(signal)) == 3 * len(signal)
        assert len(reference.downsample2(signal)) == len(signal) // 2
        assert len(reference.downsample3(signal)) == len(signal) // 3


class TestComplexWrapProperties:
    @given(a=int16, b=int16, c=int16, d=int16)
    @example(a=-32768, b=-32768, c=-32768, d=-32768)
    @example(a=32767, b=32767, c=32767, d=32767)
    @example(a=-32768, b=32767, c=-32768, d=32767)
    @settings(max_examples=300)
    def test_cmul_is_exact_product_wrapped(self, a, b, c, d):
        (re,), (im,) = reference.complex_multiply([a], [b], [c], [d])
        assert re == _wrap(_wrap(a * c) - _wrap(b * d))
        assert im == _wrap(_wrap(a * d) + _wrap(b * c))

    @given(re=int16, im=int16)
    @example(re=-32768, im=-32768)
    @settings(max_examples=300)
    def test_cmag_bounds(self, re, im):
        (mag,) = reference.complex_magnitude([re], [im])
        # alpha-max-beta-min: never low by more than ~4%, never more
        # than ~12% high (exact for |z| on an axis) — on non-wrapping
        # magnitudes.  ABS wraps INT16_MIN to itself, so exclude it.
        if re == -32768 or im == -32768:
            return
        hi = max(abs(re), abs(im))
        lo = min(abs(re), abs(im))
        if hi + (lo >> 1) > 32767:
            # The final ADD wraps like every fabric ADD — spec, not bug.
            assert mag == _wrap(hi + (lo >> 1))
            return
        true = math.hypot(re, im)
        assert mag >= hi
        if true:
            assert mag / true <= 1.12

    @given(a=int16, b=int16)
    def test_cmul_by_one_is_identity(self, a, b):
        (re,), (im,) = reference.complex_multiply([a], [b], [1], [0])
        assert (re, im) == (a, b)


class TestNcoProperties:
    @given(fcw=int16, length=st.integers(min_value=1, max_value=40))
    @settings(max_examples=150)
    def test_phase_accumulator_exact(self, fcw, length):
        phases = reference.nco_phases(fcw, length)
        assert phases == [_wrap(fcw * (n + 1)) for n in range(length)]

    @given(p=int16)
    @example(p=-32768)
    @example(p=32767)
    @example(p=0)
    @settings(max_examples=300)
    def test_shaper_tracks_sine(self, p):
        if p == -32768:
            # ABS wrap: the fabric's |INT16_MIN| = INT16_MIN is spec.
            assert reference.sine_shape(p) == \
                reference.sine_shape(-32768)
            return
        value = reference.sine_shape(p)
        ideal = 16384 * math.sin(math.pi * p / 32768)
        assert abs(value - ideal) <= 1200

    @given(fcw=st.integers(min_value=-8000, max_value=8000),
           length=st.integers(min_value=1, max_value=32))
    def test_nco_is_shaped_phase(self, fcw, length):
        phases = reference.nco_phases(fcw, length)
        assert reference.nco(fcw, length) == \
            [reference.sine_shape(p) for p in phases]


class TestRingMacProperties:
    @given(st.lists(st.tuples(
        st.lists(st.integers(min_value=-100, max_value=100),
                 min_size=3, max_size=8),
        st.lists(st.integers(min_value=-100, max_value=100),
                 min_size=3, max_size=8)),
        min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_partials_are_wrapped_dot_products(self, pairs):
        length = min(min(len(a), len(b)) for a, b in pairs)
        a = [pair[0][:length] for pair in pairs]
        b = [pair[1][:length] for pair in pairs]
        partials = reference.ringmac(a, b)
        for c, stream in enumerate(partials):
            acc = 0
            for k, got in enumerate(stream):
                acc = _wrap(acc + _wrap(a[c][k] * b[c][k]))
                assert got == acc
