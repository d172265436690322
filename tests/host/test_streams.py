"""Tests for the data controller: stream channels and output taps."""

import pytest

from repro.core.isa import Dest, MicroWord, Opcode, Source
from repro.core.ring import PortSource, make_ring
from repro.host.streams import (
    BatchStreamChannel,
    DataController,
    OutputTap,
    StreamChannel,
)
from repro.errors import HostError


class TestStreamChannel:
    def test_presents_head_until_advance(self):
        ch = StreamChannel([1, 2, 3])
        assert ch.current() == 1
        assert ch.current() == 1
        ch.advance()
        assert ch.current() == 2

    def test_underrun_presents_idle(self):
        ch = StreamChannel(idle_value=9)
        assert ch.current() == 9
        assert ch.underruns == 1

    def test_advance_on_empty_is_noop(self):
        ch = StreamChannel()
        ch.advance()
        assert ch.delivered == 0

    def test_delivered_counter(self):
        ch = StreamChannel([1, 2])
        ch.advance()
        ch.advance()
        ch.advance()
        assert ch.delivered == 2

    def test_push_single_int(self):
        ch = StreamChannel()
        ch.push(5)
        assert ch.pending() == 1

    def test_push_validates(self):
        with pytest.raises(ValueError):
            StreamChannel([70000])


class TestOutputTap:
    def test_collects_in_order(self):
        tap = OutputTap(0, 0)
        for v in (1, 2, 3):
            tap.observe(v)
        assert tap.samples == [1, 2, 3]

    def test_skip(self):
        tap = OutputTap(0, 0, skip=2)
        for v in (1, 2, 3, 4):
            tap.observe(v)
        assert tap.samples == [3, 4]

    def test_every(self):
        tap = OutputTap(0, 0, every=3)
        for v in range(9):
            tap.observe(v)
        assert tap.samples == [0, 3, 6]

    def test_skip_and_every_combined(self):
        tap = OutputTap(0, 0, skip=1, every=2)
        for v in range(8):
            tap.observe(v)
        assert tap.samples == [1, 3, 5, 7]

    def test_limit(self):
        tap = OutputTap(0, 0, limit=2)
        for v in range(5):
            tap.observe(v)
        assert tap.samples == [0, 1]
        assert tap.full

    def test_unlimited_never_full(self):
        tap = OutputTap(0, 0)
        tap.observe(1)
        assert not tap.full

    def test_validation(self):
        with pytest.raises(HostError):
            OutputTap(0, 0, skip=-1)
        with pytest.raises(HostError):
            OutputTap(0, 0, every=0)
        with pytest.raises(HostError):
            OutputTap(0, 0, limit=-1)


class TestDataController:
    def test_channels_created_on_demand(self):
        dc = DataController()
        assert dc.channel(3).pending() == 0

    def test_channel_index_validated(self):
        with pytest.raises(HostError):
            DataController().channel(-1)

    def test_host_in_reads_current(self):
        dc = DataController()
        dc.stream(0, [7, 8])
        assert dc.host_in(0) == 7

    def test_advance_moves_all_channels(self):
        dc = DataController()
        dc.stream(0, [1, 2])
        dc.stream(1, [10, 20])
        dc.advance()
        assert dc.host_in(0) == 2
        assert dc.host_in(1) == 20

    def test_collect_samples_dnode_out(self):
        ring = make_ring(4)
        ring.config.write_microword(0, 0, MicroWord(
            Opcode.MOV, Source.IMM, dst=Dest.OUT, imm=42))
        dc = DataController()
        tap = dc.add_tap(0, 0)
        ring.step()
        dc.collect(ring)
        assert tap.samples == [42]

    def test_word_counters(self):
        dc = DataController()
        dc.stream(0, [1, 2, 3])
        dc.advance()
        dc.advance()
        tap = dc.add_tap(0, 0)
        tap.observe(5)
        assert dc.total_words_in() == 2
        assert dc.total_words_out() == 1


class TestUnderrunOncePerCycle:
    """A dry port is level-sensitive: however many agents read it within
    one cycle, it counts at most one underrun until the next clock edge.
    Regression for the double-count bug where every ``current()`` on a
    dry channel bumped the counter."""

    def test_scalar_repeated_reads_count_one(self):
        ch = StreamChannel(idle_value=9)
        for _ in range(5):
            assert ch.current() == 9
        assert ch.underruns == 1
        ch.advance()
        ch.current()
        ch.current()
        assert ch.underruns == 2

    def test_scalar_underrun_resets_when_words_arrive(self):
        ch = StreamChannel()
        ch.current()
        ch.push(7)
        assert ch.current() == 7
        ch.advance()
        ch.current()
        assert ch.underruns == 2

    def test_batch_repeated_reads_count_one_per_lane(self):
        ch = BatchStreamChannel(3)
        ch.push([1, 2], lane=0)
        ch.current()
        ch.current()
        assert ch.underruns == [0, 1, 1]
        ch.advance()
        for _ in range(3):
            ch.current()
        assert ch.underruns == [0, 2, 2]
        ch.advance()
        ch.current()
        assert ch.underruns == [1, 3, 3]

    def test_fanned_out_host_route_counts_once_per_cycle(self):
        """One HOST channel routed into both switch ports of a Dnode is
        read twice per fabric cycle; the dry channel must still count
        exactly one underrun per cycle of the traced run."""
        ring = make_ring(4)
        ring.config.write_switch_route(0, 0, 1, PortSource.host(0))
        ring.config.write_switch_route(0, 0, 2, PortSource.host(0))
        dc = DataController()
        dc.channel(0)  # materialize the dry channel
        dc.add_tap(0, 0)  # force per-cycle servicing through the system
        from repro.host.system import RingSystem
        system = RingSystem(ring)
        system.data = dc
        system.run(6)
        assert dc.channel(0).underruns == 6


class TestCaptureStateIsDeepCopy:
    """capture_state must hand back fully decoupled state: mutating the
    checkpoint never leaks into the live controller and vice versa."""

    def test_scalar_checkpoint_is_decoupled(self):
        dc = DataController()
        dc.stream(0, [1, 2, 3])
        tap = dc.add_tap(0, 0)
        tap.observe(42)
        state = dc.capture_state()
        state["channels"][0]["queue"].append(999)
        state["taps"][0]["samples"].append(999)
        assert dc.channel(0).pending() == 3
        assert tap.samples == [42]
        dc.channel(0).advance()
        tap.observe(43)
        assert state["channels"][0]["queue"] == [1, 2, 3, 999]
        assert state["taps"][0]["samples"] == [42, 999]

    def test_batch_checkpoint_is_decoupled(self):
        dc = DataController(batch=2)
        dc.stream(0, [5, 6])
        tap = dc.add_tap(0, 0)
        tap.observe([10, 20])
        state = dc.capture_state()
        state["channels"][0]["lanes"][1].append(999)
        state["taps"][0]["samples"][0].append(999)
        assert dc.channel(0).lane_pending(1) == 2
        assert tap.lane(0) == [10]

    def test_restore_decouples_from_checkpoint(self):
        dc = DataController()
        dc.stream(0, [1, 2])
        state = dc.capture_state()
        dc.restore_state(state)
        state["channels"][0]["queue"].append(999)
        assert dc.channel(0).pending() == 2
