"""Golden kernel tests on the batch backend: 8 streams, one fabric.

Each test runs a paper kernel (FIR / IIR / DCT) with batch_size=8 and a
*different* input stream per lane, then checks every lane bit-exactly
against the scalar golden model in :mod:`repro.kernels.reference` /
:func:`repro.kernels.dct.dct8_reference` — the end-to-end counterpart of
the per-opcode and per-cycle differential suites in
``tests/core/test_differential.py``.
"""

import pytest

from repro import word
from repro.core.ring import Ring, RingGeometry
from repro.host.system import RingSystem
from repro.kernels import reference
from repro.kernels.dct import build_dct_system, dct8_reference
from repro.kernels.fir import build_spatial_fir
from repro.kernels.iir import build_first_order_iir

BATCH = 8


def _lane_signal(lane: int, length: int, spread: int = 40):
    """A small deterministic signal that differs per lane."""
    return [((3 * i + 7 * lane + 5) % (2 * spread)) - spread
            for i in range(length)]


class TestBatchFir:
    TAPS = [3, -1, 4, 2]

    def test_eight_lanes_match_reference(self):
        n_taps = len(self.TAPS)
        ring = Ring(RingGeometry(layers=n_taps, width=2),
                    backend="batch", batch_size=BATCH)
        build_spatial_fir(self.TAPS, ring=ring)
        system = RingSystem(ring)
        length = 24
        signals = [_lane_signal(lane, length) for lane in range(BATCH)]
        for lane, signal in enumerate(signals):
            system.data.stream(0, [word.from_signed(v) for v in signal],
                               lane=lane)
        tap = system.data.add_tap(n_taps - 1, 1, skip=n_taps - 1,
                                  limit=length)
        system.run(length + n_taps)
        assert tap.full
        for lane, signal in enumerate(signals):
            got = [word.to_signed(v) for v in tap.lane(lane)]
            want = reference.fir(signal, self.TAPS)
            assert got == want, f"FIR lane {lane} diverged"
        # Lanes carried different data, so the streams must differ too.
        assert tap.lane(0) != tap.lane(1)


class TestBatchIir:
    B0, A1 = 3, -1

    def test_eight_lanes_match_reference(self):
        ring = Ring(RingGeometry(layers=2, width=2),
                    backend="batch", batch_size=BATCH)
        build_first_order_iir(self.B0, self.A1, ring=ring)
        system = RingSystem(ring)
        length = 20
        signals = [_lane_signal(lane, length, spread=25)
                   for lane in range(BATCH)]
        for lane, signal in enumerate(signals):
            system.data.stream(0, [word.from_signed(v) for v in signal],
                               lane=lane)
        tap = system.data.add_tap(1, 0, skip=1, limit=length)
        system.run(length + 2)
        for lane, signal in enumerate(signals):
            got = [word.to_signed(v) for v in tap.lane(lane)]
            want = reference.iir_first_order(signal, self.B0, self.A1)
            assert got == want, f"IIR lane {lane} diverged"


class TestBatchDct:
    GROUPS = 3

    def test_eight_lanes_match_reference(self):
        ring = Ring(RingGeometry.ring(16),
                    backend="batch", batch_size=BATCH)
        system = build_dct_system(ring)
        length = 8 * self.GROUPS
        signals = [_lane_signal(lane, length, spread=30)
                   for lane in range(BATCH)]
        taps = []
        for k in range(8):
            for lane, signal in enumerate(signals):
                ring.lanes.push_fifo(
                    k, 0, 1, [word.from_signed(v) for v in signal],
                    lane=lane)
            taps.append(system.data.add_tap(k, 0, skip=7, every=8,
                                            limit=self.GROUPS))
        system.run(length)
        for lane, signal in enumerate(signals):
            for group in range(self.GROUPS):
                want = dct8_reference(signal[8 * group:8 * group + 8])
                got = [word.to_signed(taps[k].lane(lane)[group])
                       for k in range(8)]
                assert got == want, (
                    f"DCT lane {lane} group {group} diverged"
                )


def test_batch_size_one_matches_scalar_system():
    """B=1 batch system and the plain scalar system agree end to end."""
    taps = [2, -3, 1]
    signal = _lane_signal(1, 16)
    results = []
    for kwargs in ({}, {"backend": "batch", "batch_size": 1}):
        ring = Ring(RingGeometry(layers=3, width=2), **kwargs)
        build_spatial_fir(taps, ring=ring)
        system = RingSystem(ring)
        system.data.stream(0, [word.from_signed(v) for v in signal])
        tap = system.data.add_tap(2, 1, skip=2, limit=len(signal))
        system.run(len(signal) + 3)
        samples = (tap.lane(0) if hasattr(tap, "lane")
                   else list(tap.samples))
        results.append([word.to_signed(v) for v in samples])
    assert results[0] == results[1] == [
        word.to_signed(word.wrap(v)) for v in reference.fir(signal, taps)]
