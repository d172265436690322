"""Lane checkpoint format of the batch engine.

``BatchRing.capture_lanes`` / ``restore_lanes`` carry the full per-lane
state between rings (and through :mod:`repro.core.snapshot`).  These
tests pin the exported format and the lane-count guard on restore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture
from repro.errors import SimulationError
from repro.kernels.fir import build_spatial_fir

_TAPS = [3, -1, 4, 1, -5, 9, 2, -6]


def _fir_ring(**kwargs) -> Ring:
    ring = Ring(RingGeometry(layers=len(_TAPS), width=2), **kwargs)
    build_spatial_fir(_TAPS, ring=ring)
    return ring


def _lane_host(ring: Ring, batch: int):
    """Per-lane array stimulus, distinct on every lane."""
    def host_in(channel: int) -> np.ndarray:
        return np.array(
            [(131 * channel + 7 * ring.cycles + 1009 * lane) & 0xFFFF
             for lane in range(batch)], dtype=np.int64)
    return host_in


class TestCheckpointAndMigration:
    def test_capture_lanes_matches_batch_format(self):
        ring = _fir_ring(backend="batch", batch_size=5)
        ring.push_fifo(1, 0, 2, [5, 6])
        ring.run(12, host_in=_lane_host(ring, 5))
        lanes = ring.batch.capture_lanes()
        # Plain, self-contained data: every lane, no live array views.
        assert set(lanes) == {"batch", "outs", "regs", "pipes", "head",
                              "counters", "fifos", "lane_underflows",
                              "lane_fifo_pops"}
        assert lanes["batch"] == 5
        assert lanes["outs"] == ring.batch.outs.tolist()
        assert lanes["regs"] == ring.batch.regs.tolist()
        assert lanes["pipes"] == ring.batch.pipes.tolist()
        assert len(lanes["lane_underflows"]) == 5
        assert all(len(lane_fifos) == 5
                   for lane_fifos in lanes["fifos"].values())
        # A ring snapshot stores exactly this dict.
        assert capture(ring).lanes == lanes

    def test_restore_lanes_rejects_wrong_batch(self):
        engine = _fir_ring(backend="batch", batch_size=5).batch
        state = _fir_ring(backend="batch", batch_size=3).batch.capture_lanes()
        with pytest.raises(SimulationError, match="3 lanes"):
            engine.restore_lanes(state)
