"""Bulk host I/O matches per-cycle stepping, on every engine.

An uncontrolled :meth:`RingSystem.run` moves whole stream/tap windows
through the compiled engines; :meth:`RingSystem.step` is the per-cycle
reference.  After any mix of runs, these tests compare the two on the
full fabric state *and* the full host state: queued words,
``delivered``, ``underruns``, the dry-read latch, tap samples and each
tap's cycle count — including at every observer capture point, where a
bulk run splits its window.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import nativepath
from repro.core.dnode import DnodeMode
from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import FIRST_VISIT_CODEGEN_CYCLES, Ring, RingGeometry
from repro.core.switch import PortSource
from repro.host.system import RingSystem

from tests.kernels.conftest import ENGINES, fabric_state, make_ring

GEOMETRY = RingGeometry(layers=4, width=2)

#: Channel 2 is never routed: it must still drain one word per cycle.
UNROUTED = 2


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    return request.param, dict(ENGINES[request.param])


def _configure(ring: Ring) -> None:
    """A feed-forward (native-eligible) fabric reading host channels 0
    and 1 — channel 0 through two ports — with a feedback tap and a
    two-slot local sequencer."""
    cfg = ring.config
    cfg.write_switch_route(0, 0, 1, PortSource.host(0))
    cfg.write_microword(0, 0, MicroWord(Opcode.MOV, Source.IN1,
                                        dst=Dest.OUT))
    cfg.write_switch_route(0, 1, 1, PortSource.host(1))
    cfg.write_switch_route(0, 1, 2, PortSource.host(0))
    cfg.write_microword(0, 1, MicroWord(Opcode.ADD, Source.IN1, Source.IN2,
                                        Dest.OUT))
    cfg.write_switch_route(1, 0, 1, PortSource.up(0))
    cfg.write_switch_route(1, 0, 2, PortSource.up(1))
    cfg.write_microword(1, 0, MicroWord(Opcode.MADD, Source.IN1, Source.IN2,
                                        Dest.OUT, imm=3))
    cfg.write_switch_route(1, 1, 1, PortSource.up(1))
    cfg.write_microword(1, 1, MicroWord(Opcode.SUB, Source.IN1,
                                        Source.rp(2, 1), Dest.OUT))
    cfg.write_switch_route(2, 0, 1, PortSource.up(0))
    cfg.write_local_program(2, 0, [
        MicroWord(Opcode.ADD, Source.IN1, Source.IMM, Dest.OUT, imm=5),
        MicroWord(Opcode.MOV, Source.IN1, dst=Dest.R0),
    ])
    cfg.write_mode(2, 0, DnodeMode.LOCAL)
    cfg.write_switch_route(3, 1, 1, PortSource.up(0))
    cfg.write_switch_route(3, 1, 2, PortSource.rp(3, 1))
    cfg.write_microword(3, 1, MicroWord(Opcode.MADD, Source.IN1, Source.IN2,
                                        Dest.OUT, imm=2))


def _system(kwargs) -> RingSystem:
    ring = make_ring(GEOMETRY, kwargs)
    _configure(ring)
    return RingSystem(ring)


def _stream(system: RingSystem, channel: int, values, lane_skew=0):
    """Queue *values*; a batch system gets lane-specific lengths."""
    data = system.data
    if data.batch == 1:
        data.stream(channel, values)
        return
    for lane in range(data.batch):
        data.stream(channel, values[:max(0, len(values) - lane * lane_skew)],
                    lane=lane)


def host_state(system: RingSystem) -> dict:
    state = system.data.capture_state()
    state["latches"] = {index: ch._dry_seen
                        for index, ch in system.data._channels.items()}
    return state


def full_state(system: RingSystem) -> tuple:
    return (system.cycles, fabric_state(system.ring), host_state(system))


def _twins(kwargs):
    return _system(kwargs), _system(kwargs)


def _step(system: RingSystem, cycles: int) -> None:
    for _ in range(cycles):
        system.step()


def _words(n, seed=1):
    return [(seed * 7919 + 31 * i) & 0xFFFF for i in range(n)]


class TestParity:
    def test_stream_runs_dry_mid_window(self, engine):
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        for system in (bulk, stepped):
            _stream(system, 0, _words(23), lane_skew=5)
            _stream(system, 1, _words(9, 2))
            system.data.add_tap(3, 1)
        bulk.run(40)
        _step(stepped, 40)
        assert full_state(bulk) == full_state(stepped)
        ch = bulk.data.channel(0)
        assert ch.underruns and ch.delivered

    def test_unrouted_channel_drains_without_underruns(self, engine):
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        for system in (bulk, stepped):
            _stream(system, UNROUTED, _words(12, 3), lane_skew=4)
        bulk.run(20)
        _step(stepped, 20)
        assert full_state(bulk) == full_state(stepped)
        assert bulk.data.channel(UNROUTED).pending() == 0
        underruns = bulk.data.channel(UNROUTED).underruns
        assert underruns in (0, [0] * bulk.data.batch)

    def test_tap_skip_every_limit(self, engine):
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        for system in (bulk, stepped):
            _stream(system, 0, _words(50), lane_skew=3)
            _stream(system, 1, _words(50, 5))
            system.data.add_tap(1, 0, skip=3, every=4, limit=7)
            system.data.add_tap(3, 1, skip=11, every=3)
            system.data.add_tap(2, 0, every=2, limit=0)
        bulk.run(17)
        bulk.run(30)
        _step(stepped, 47)
        assert full_state(bulk) == full_state(stepped)

    def test_tap_added_between_runs(self, engine):
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        for system in (bulk, stepped):
            _stream(system, 0, _words(30))
            _stream(system, 1, _words(30, 4))
        bulk.run(9)
        _step(stepped, 9)
        for system in (bulk, stepped):
            system.data.add_tap(1, 1, skip=2, every=2, limit=5)
        bulk.run(14)
        _step(stepped, 14)
        assert full_state(bulk) == full_state(stepped)

    def test_interval_observer_sees_per_cycle_state(self, engine):
        """Captures fire with the last cycle's clock edge still pending,
        exactly where per-cycle stepping fires them."""
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        captures = {id(bulk): [], id(stepped): []}
        for system in (bulk, stepped):
            _stream(system, 0, _words(26), lane_skew=2)
            _stream(system, 1, _words(40, 6))
            system.data.add_tap(3, 1, skip=1)
            system.ring.add_observer(
                lambda ring, _s=system: captures[id(_s)].append(
                    full_state(_s)),
                interval=7)
        bulk.run(45)
        _step(stepped, 45)
        assert captures[id(bulk)] == captures[id(stepped)]
        assert len(captures[id(bulk)]) == 45 // 7
        assert full_state(bulk) == full_state(stepped)

    def test_drop_next_fault_between_windows(self, engine):
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        for system in (bulk, stepped):
            _stream(system, 0, _words(40))
            _stream(system, 1, _words(40, 7))
            system.data.add_tap(1, 0)
        bulk.run(11)
        _step(stepped, 11)
        for system in (bulk, stepped):
            system.data.channel(0).drop_next()
        bulk.run(16)
        _step(stepped, 16)
        assert full_state(bulk) == full_state(stepped)

    def test_drop_next_fault_at_capture_point(self, engine):
        """A fault observer drops the word presented during its cycle:
        the queue head is still that word when it fires."""
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        for system in (bulk, stepped):
            _stream(system, 0, _words(40), lane_skew=6)
            _stream(system, 1, _words(40, 8))
            system.data.add_tap(3, 1)
            system.ring.add_observer(
                lambda ring, _d=system.data: _d.channel(0).drop_next(),
                interval=5, start=5, stop=20)
        bulk.run(33)
        _step(stepped, 33)
        assert full_state(bulk) == full_state(stepped)

    def test_read_latched_before_the_run(self, engine):
        """A host read of a dry channel between runs latches that
        cycle's underrun; the run's first read must not count it again."""
        _name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        captures = {id(bulk): [], id(stepped): []}
        for system in (bulk, stepped):
            for channel in (0, 1, UNROUTED):
                system.data.channel(channel).current()
            system.ring.add_observer(
                lambda ring, _s=system: captures[id(_s)].append(
                    full_state(_s)),
                interval=3)
        bulk.run(6)
        _step(stepped, 6)
        assert captures[id(bulk)] == captures[id(stepped)]
        assert full_state(bulk) == full_state(stepped)

    def test_long_window_engages_compiled_rungs(self, engine):
        name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        cycles = FIRST_VISIT_CODEGEN_CYCLES + 40
        for system in (bulk, stepped):
            _stream(system, 0, _words(cycles - 30), lane_skew=7)
            _stream(system, 1, _words(cycles, 9))
            system.data.add_tap(3, 1, skip=5, every=3)
        bulk.run(cycles)
        _step(stepped, cycles)
        assert full_state(bulk) == full_state(stepped)
        ring = bulk.ring
        if name in ("native", "ladder"):
            assert nativepath.compile_native(ring) is not None
            assert ring.native_cycles > 0
        if name == "macro":
            assert ring.macro_cycles > 0

    def test_plane_revisit_engages_compiled_rungs(self, engine):
        """Short windows on a recurring configuration still fuse."""
        name, kwargs = engine
        bulk, stepped = _twins(kwargs)
        plane = bulk.ring.config.capture_plane()
        other = Ring(GEOMETRY, backend="interpreter").config.capture_plane()
        for round_ in range(3):
            for system in (bulk, stepped):
                system.ring.config.apply_plane(other)
                _stream(system, 0, _words(4, round_))
            bulk.run(4)
            _step(stepped, 4)
            for system in (bulk, stepped):
                system.ring.config.apply_plane(plane)
                _stream(system, 0, _words(24, round_), lane_skew=3)
                _stream(system, 1, _words(20, round_ + 1))
                system.data.add_tap(3, 1)
            bulk.run(24)
            _step(stepped, 24)
            assert full_state(bulk) == full_state(stepped)
            for system in (bulk, stepped):
                system.data.taps.clear()
        if name in ("native", "ladder"):
            assert bulk.ring.native_cycles > 0
        if name == "macro":
            assert bulk.ring.macro_cycles > 0

    def test_plane_revisit_lifts_ladder_codegen_deferral(self):
        """On the ladder, a short window generates no kernel on a
        plane's first visit, and does once the plane comes back through
        a plan-cache hit."""
        bulk, stepped = _twins({})
        plane = bulk.ring.config.capture_plane()
        other = Ring(GEOMETRY, backend="interpreter").config.capture_plane()
        native = []
        for round_ in range(2):
            for system in (bulk, stepped):
                system.ring.config.apply_plane(other)
                _stream(system, 0, _words(4, round_))
            bulk.run(4)
            _step(stepped, 4)
            for system in (bulk, stepped):
                system.ring.config.apply_plane(plane)
                _stream(system, 0, _words(24, round_))
                _stream(system, 1, _words(20, round_ + 1))
            bulk.run(24)
            _step(stepped, 24)
            assert full_state(bulk) == full_state(stepped)
            native.append(bulk.ring.native_cycles)
        assert native[0] == 0, "first visit generated a kernel"
        assert native[1] > 0, "the revisit never fused"


tap_specs = st.lists(
    st.tuples(st.integers(0, GEOMETRY.layers - 1),
              st.integers(0, GEOMETRY.width - 1),
              st.integers(0, 6), st.integers(1, 4),
              st.one_of(st.none(), st.integers(0, 12))),
    max_size=3)


@pytest.mark.parametrize("name", sorted(ENGINES))
@given(lengths=st.lists(st.integers(0, 30), min_size=3, max_size=3),
       taps=tap_specs,
       windows=st.lists(st.integers(1, 25), min_size=1, max_size=4),
       drop_after=st.one_of(st.none(), st.integers(0, 3)),
       skew=st.integers(0, 5))
@settings(max_examples=20)
def test_bulk_matches_per_cycle(name, lengths, taps, windows, drop_after,
                                skew):
    bulk, stepped = _twins(ENGINES[name])
    for system in (bulk, stepped):
        for channel, length in enumerate(lengths):
            _stream(system, channel, _words(length, channel + 1),
                    lane_skew=skew)
        for layer, pos, skip, every, limit in taps:
            system.data.add_tap(layer, pos, skip=skip, every=every,
                                limit=limit)
    for index, window in enumerate(windows):
        bulk.run(window)
        _step(stepped, window)
        if drop_after == index:
            for system in (bulk, stepped):
                system.data.channel(0).drop_next()
        assert full_state(bulk) == full_state(stepped)
