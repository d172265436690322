"""Lane rings: B independent streams run lane by lane on the ladder.

A ``backend="batch"`` ring keeps lanes 1..B-1 in a
:class:`~repro.core.lanes.LaneStore` whose records are the datapath half
of a :class:`~repro.core.snapshot.RingSnapshot`.  These tests pin the
lane checkpoint (capture/restore, the lane-count guard, migration to
another ring) and the end-to-end lane contract of ``RingSystem.run``:
lane *i* equals a scalar ring run on lane *i*'s stream, with the ring's
statistics counted once and FIFO pops and underflows counted per lane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.lanes import LaneState, read_lane
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture, restore, state_digest
from repro.core.switch import PortSource
from repro.errors import ConfigurationError, SimulationError
from repro.host.system import RingSystem
from repro.kernels.fir import build_spatial_fir
from tests.rungs import lane_ring

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


def _lane_states(ring: Ring):
    return [ring.lanes.state(lane) for lane in range(ring.lanes.size)]


class TestLaneCheckpoint:
    def test_capture_lanes_through_snapshot(self):
        ring = _fir_ring(backend="batch", batch_size=5)
        ring.push_fifo(1, 0, 2, [5, 6])
        ring.lanes.push_fifo(1, 0, 2, [7], lane=3)
        ring.run(12, host_in=_lane_host(ring, 5))
        snapshot = capture(ring)
        # Lanes 1..4 in the snapshot's own datapath format; lane 0 is
        # the snapshot's datapath.
        assert len(snapshot.lanes) == 4
        assert all(type(lane) is LaneState for lane in snapshot.lanes)
        assert snapshot.lanes == _lane_states(ring)[1:]
        assert snapshot.datapath.fifos == {(1, 0, 2): [5, 6]}
        assert snapshot.lanes[2].fifos == {(1, 0, 2): [5, 6, 7]}
        assert snapshot.datapath.outs != snapshot.lanes[0].outs
        # Restoring onto a lane ring of the same width restores every
        # lane, not just lane 0.
        before = _lane_states(ring)
        ring.run(5, host_in=_lane_host(ring, 5))
        assert _lane_states(ring) != before
        restore(ring, snapshot)
        assert _lane_states(ring) == before

    def test_restore_lanes_rejects_wrong_batch(self):
        lanes = _fir_ring(backend="batch", batch_size=5).lanes
        state = _fir_ring(backend="batch", batch_size=3).lanes.capture()
        with pytest.raises(SimulationError, match="3 lanes"):
            lanes.restore(state)

    def test_migration_round_trip(self):
        """A snapshot moves a running lane ring to a fresh one: both
        continue bit-identically, on every lane."""
        source = _fir_ring(backend="batch", batch_size=4)
        source.run(10, host_in=_lane_host(source, 4))
        target = _fir_ring(backend="batch", batch_size=4)
        restore(target, capture(source))
        assert state_digest(target) == state_digest(source)
        for ring in (source, target):
            ring.run(9, host_in=_lane_host(ring, 4))
        assert state_digest(target) == state_digest(source)
        assert _lane_states(target) == _lane_states(source)

    def test_scalar_snapshot_broadcasts_to_every_lane(self):
        scalar = _fir_ring()
        scalar.run(6, host_in=lambda ch: 11)
        ring = _fir_ring(backend="batch", batch_size=3)
        restore(ring, capture(scalar))
        assert _lane_states(ring) == [_lane_states(ring)[0]] * 3


# -- RingSystem.run: lane i == a scalar run on lane i's stream ---------

_BATCH = 4
_CYCLES = 24


def _popping_ring(**kwargs) -> Ring:
    """D0.0 scales the host stream; D0.1 pops FIFO1 every cycle, so a
    short FIFO load underflows; D1.0 sums the two."""
    ring = Ring(RingGeometry(layers=2, width=2), **kwargs)
    cfg = ring.config
    cfg.write_switch_route(0, 0, 1, PortSource.host(0))
    cfg.write_microword(0, 0, MicroWord(
        Opcode.MUL, Source.IN1, Source.IMM, Dest.OUT, imm=3))
    cfg.write_microword(0, 1, MicroWord(
        Opcode.ADD, Source.FIFO1, Source.ZERO, Dest.OUT,
        flags=Flag.POP_FIFO1))
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    cfg.write_switch_route(1, 0, 2, PortSource.up(1))
    cfg.write_microword(1, 0, MicroWord(
        Opcode.ADD, Source.IN1, Source.IN2, Dest.OUT))
    return ring


def _stream(lane: int):
    return [(37 * i + 501 * lane + 5) & 0x7FF for i in range(_CYCLES - 4)]


def _fifo_load(lane: int):
    return [(91 * i + 17 * lane) & 0xFFFF for i in range(3 + 4 * lane)]


def _stats(ring: Ring):
    return [(s.cycles, s.instructions, s.arithmetic_ops, s.multiplies,
             s.fifo_pops) for s in (dn.stats for dn in ring.all_dnodes())]


class TestSystemRunPerLane:
    def test_lane_matches_scalar_run_on_its_stream(self):
        ring = _popping_ring(backend="batch", batch_size=_BATCH)
        system = RingSystem(ring)
        for lane in range(_BATCH):
            system.data.stream(0, _stream(lane), lane=lane)
            ring.lanes.push_fifo(0, 1, 1, _fifo_load(lane), lane=lane)
        tap = system.data.add_tap(1, 0)
        system.run(_CYCLES)

        scalars = []
        for lane in range(_BATCH):
            scalar = _popping_ring()
            scalar_system = RingSystem(scalar)
            scalar_system.data.stream(0, _stream(lane))
            scalar.push_fifo(0, 1, 1, _fifo_load(lane))
            scalar_tap = scalar_system.data.add_tap(1, 0)
            scalar_system.run(_CYCLES)
            assert tap.lane(lane) == scalar_tap.samples, (
                f"lane {lane} tap diverged")
            twin = lane_ring(ring, lane)
            for attr in ("cycles", "fifo_underflows"):
                assert getattr(twin, attr) == getattr(scalar, attr)
            assert _stats(twin) == _stats(scalar), f"lane {lane} stats"
            assert ([dn.out for dn in twin.all_dnodes()]
                    == [dn.out for dn in scalar.all_dnodes()])
            scalars.append(scalar)

        # Per-lane FIFO accounting really differs across lanes ...
        underflows = [s.fifo_underflows for s in scalars]
        pops = [s.dnode(0, 1).stats.fifo_pops for s in scalars]
        assert len(set(underflows)) == _BATCH and len(set(pops)) == _BATCH
        # ... the ring's own statistics are lane 0's, counted once ...
        assert _stats(ring) == _stats(scalars[0])
        assert ring.dnode(0, 0).stats.cycles == _CYCLES
        # ... and the lane metrics report every lane.
        metrics = system.metrics()
        for lane in range(_BATCH):
            assert metrics.value("batch_lane_fifo_pops_total",
                                 lane=str(lane)) == pops[lane]
            assert metrics.value("batch_lane_fifo_underflows_total",
                                 lane=str(lane)) == underflows[lane]
        assert metrics.value("batch_fifo_underflows_total") == sum(
            underflows)
        assert metrics.value("batch_lanes") == _BATCH


# -- per-cycle host readers on a lane ring ----------------------------


class TestLaneReaders:
    def test_changing_reads_replay_call_for_call(self):
        """Both layer-0 ports of the FIR read host channel 0; a reader
        that returns a new word on every call cannot become a window,
        so the lanes after the first replay its log call for call and
        all end where one scalar ring fed the same reads ends."""
        def counting_reader():
            calls = []

            def read(channel: int) -> int:
                calls.append(channel)
                return (97 * len(calls)) & 0xFFFF
            return read, calls

        ring = _fir_ring(backend="batch", batch_size=3)
        read, calls = counting_reader()
        ring.run(20, host_in=read)
        scalar = _fir_ring()
        scalar_read, scalar_calls = counting_reader()
        scalar.run(20, host_in=scalar_read)
        assert calls == scalar_calls
        assert _lane_states(ring) == [read_lane(scalar)] * 3

    def test_long_reader_span_runs_in_chunks(self, monkeypatch):
        from repro.core import lanes as lanes_module
        monkeypatch.setattr(lanes_module, "READER_SPAN", 7)
        chunked = _fir_ring(backend="batch", batch_size=3)
        chunked.run(30, host_in=_lane_host(chunked, 3))
        monkeypatch.undo()
        whole = _fir_ring(backend="batch", batch_size=3)
        whole.run(30, host_in=_lane_host(whole, 3))
        assert _lane_states(chunked) == _lane_states(whole)
        assert chunked.cycles == whole.cycles == 30

    def test_lane_read_shape_and_dtype_are_checked(self):
        ring = _fir_ring(backend="batch", batch_size=3)
        with pytest.raises(SimulationError, match=r"shape \(3,\)"):
            ring.run(2, host_in=lambda ch: np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="16-bit raw words"):
            ring.run(2, host_in=lambda ch: np.zeros(3))

    def test_lane_index_and_window_width_are_checked(self):
        ring = _fir_ring(backend="batch", batch_size=3)
        with pytest.raises(ConfigurationError, match="lane must be 0..2"):
            ring.lanes.state(3)
        system = RingSystem(_fir_ring(backend="batch", batch_size=2))
        with pytest.raises(SimulationError, match="carries 2 lanes"):
            ring.run(4, host_in=system)

    def test_push_without_lane_reaches_every_lane(self):
        ring = _fir_ring(backend="batch", batch_size=3)
        ring.lanes.push_fifo(2, 0, 1, [4, 5])
        assert [state.fifos for state in _lane_states(ring)] == [
            {(2, 0, 1): [4, 5]}] * 3

