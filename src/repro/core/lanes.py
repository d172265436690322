"""Lanes: B independent streams through one ring configuration.

A ring built with ``backend="batch", batch_size=B`` advances B
independent sample streams through its single configuration.  Control
flow — which microword executes, how local sequencers advance, which
FIFO pops are requested — is decided by the configuration alone, so the
lanes differ only in their data words.  The ring itself holds lane 0; a
:class:`LaneStore` keeps the datapath of lanes 1..B-1 as
:class:`LaneState` records, and each span of cycles runs lane by lane on
the ring's own engine ladder (interpreter, per-cycle plan, macro or
native kernel):

1. the lane's record is written into the ring's existing state
   containers *in place* (register lists, OUT registers, pipeline lists,
   FIFO deques), so compiled plans and fused kernels, which close over
   those containers, stay valid;
2. the span runs from its first cycle with that lane's slice of the host
   input;
3. the lane's datapath is read back into its record.

Lane 0 runs last, so between spans the ring holds lane 0 — observers,
metrics and taps of the scalar view see it.  The lanes share one
configuration, hence one compiled plan and one set of fused kernels;
each lane's cycles are booked on the rung that ran them.

A :class:`LaneState` is the datapath half of a
:class:`~repro.core.snapshot.RingSnapshot`: register files, OUT
registers, feedback pipelines, FIFO contents, per-Dnode statistics and
the FIFO underflow count, in the snapshot's format.  What the lanes
share stays on the ring alone: the configuration, the local-sequencer
counters (configuration-driven, never data-driven), the cycle count, the
last bus value and the FIFO high-water marks.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, \
    TYPE_CHECKING

import numpy as np

from repro import word
from repro.core.hostio import HostWindow
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ring import Ring

#: A Dnode address: (layer, position).
Address = Tuple[int, int]

#: Longest span one per-cycle reader log covers; a lane ring runs longer
#: spans with a per-cycle reader in chunks of this many cycles, which
#: bounds the log's memory.
READER_SPAN = 4096

T = TypeVar("T")


@dataclass
class LaneState:
    """The datapath of one lane, as plain Python data.

    ``pipelines[k][lane][stage - 1]`` is ``Rp(stage, lane + 1)`` of
    switch *k*; ``fifos`` lists non-empty queues only.  A store never
    mutates a record in place, so lanes may share one.
    """

    registers: Dict[Address, List[int]] = field(default_factory=dict)
    outs: Dict[Address, int] = field(default_factory=dict)
    pipelines: Dict[int, List[List[int]]] = field(default_factory=dict)
    fifos: Dict[Tuple[int, int, int], List[int]] = field(
        default_factory=dict)
    #: Per-Dnode :class:`~repro.core.dnode.DnodeStats` as ``(cycles,
    #: instructions, arithmetic_ops, multiplies, fifo_pops)`` tuples.
    stats: Dict[Address, Tuple[int, ...]] = field(default_factory=dict)
    fifo_underflows: int = 0

    @property
    def fifo_pops(self) -> int:
        """Words dequeued from this lane's FIFOs, over every Dnode."""
        return sum(counts[-1] for counts in self.stats.values())


def read_lane(ring: "Ring") -> LaneState:
    """Copy *ring*'s datapath out into a fresh :class:`LaneState`."""
    state = LaneState(fifo_underflows=ring.fifo_underflows)
    registers, outs, stats = state.registers, state.outs, state.stats
    for layer_dnodes in ring._dnodes:
        for dn in layer_dnodes:
            addr = (dn.layer, dn.position)
            registers[addr] = dn.regs._values[:]
            outs[addr] = dn._out
            s = dn.stats
            stats[addr] = (s.cycles, s.instructions, s.arithmetic_ops,
                           s.multiplies, s.fifo_pops)
    for k, sw in enumerate(ring._switches):
        head = sw._head
        state.pipelines[k] = [pipe[head:] + pipe[:head]
                              for pipe in sw._pipes]
    # Iterate the live dict rather than ring.fifo(): reading must not
    # materialize empty queues as a side effect.
    state.fifos = {key: list(queue) for key, queue in ring._fifos.items()
                   if queue}
    return state


def write_lane(ring: "Ring", state: LaneState) -> None:
    """Load *state* into *ring*'s datapath, in place.

    Every container keeps its identity — register lists, pipeline
    lists, FIFO deques and statistics objects are overwritten, never
    replaced — so compiled plans and kernels bound to them stay valid.
    """
    registers, outs, stats = state.registers, state.outs, state.stats
    for layer_dnodes in ring._dnodes:
        for dn in layer_dnodes:
            addr = (dn.layer, dn.position)
            dn.regs._values[:] = registers[addr]
            dn._out = outs[addr]
            s = dn.stats
            (s.cycles, s.instructions, s.arithmetic_ops, s.multiplies,
             s.fifo_pops) = stats[addr]
    for k, sw in enumerate(ring._switches):
        head = sw._head
        for pipe, stages in zip(sw._pipes, state.pipelines[k]):
            cut = len(pipe) - head
            pipe[head:] = stages[:cut]
            pipe[:head] = stages[cut:]
    for queue in ring._fifos.values():
        queue.clear()
    for key, words in state.fifos.items():
        ring.fifo(*key).extend(words)
    ring.fifo_underflows = state.fifo_underflows


class _LaneReader:
    """Per-lane views of a per-cycle host reader over one span.

    The lane that runs first calls the reader and logs every read with
    its cycle; the word it returns — one int for every lane or a
    ``(lanes,)`` integer array — is split per lane.  The other lanes
    replay the same cycles.  When every channel presented one word per
    cycle they get a bulk :class:`HostWindow` built from the log, which
    the fused rungs consume without a per-cycle call; otherwise they
    replay the log call for call.
    """

    def __init__(self, ring: "Ring", host_in, lanes: int, cycles: int):
        self.ring = ring
        self.host_in = host_in
        self.lanes = lanes
        self.cycles = cycles
        self.base = ring.cycles
        self.log: List[Tuple[int, int, List[int]]] = []

    def _words(self, channel: int) -> List[int]:
        value = self.host_in(channel)
        if isinstance(value, (int, np.integer)):
            return [int(value)] * self.lanes
        arr = np.asarray(value)
        if arr.shape != (self.lanes,):
            raise SimulationError(
                f"host channel {channel} lane read must have shape "
                f"({self.lanes},), got {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(
                f"host channel {channel} must be 16-bit raw words, "
                f"got dtype {arr.dtype}"
            )
        return arr.tolist()

    @functools.cached_property
    def window(self) -> Optional[HostWindow]:
        """The log as a lane window, or None when some channel was read
        with two different words in one cycle, or not every cycle."""
        columns: Dict[int, List] = {}
        for channel, cycle, values in self.log:
            column = columns.get(channel)
            if column is None:
                column = columns[channel] = [None] * self.cycles
            seen = column[cycle - self.base]
            if seen is None:
                column[cycle - self.base] = values
            elif seen != values:
                return None
        if any(None in column for column in columns.values()):
            return None
        window = HostWindow(self.ring, {channel: np.array(column)
                                        for channel, column in
                                        columns.items()},
                            (), lanes=self.lanes)
        window.base = self.base
        return window

    def lane(self, lane: int):
        """Lane *lane*'s host input: the recording reader for the first
        lane to run, a window or a replaying reader for the others."""
        log = self.log
        if not log:
            append, words, ring = log.append, self._words, self.ring

            def record(channel: int) -> int:
                values = words(channel)
                append((channel, ring.cycles, values))
                return values[lane]

            return record
        if self.window is not None:
            return self.window.lane(lane)
        replay = functools.partial(
            next, iter([(channel, values[lane])
                        for channel, _cycle, values in log]))

        def read(channel: int, _next=replay) -> int:
            logged, value = _next((None, 0))
            if logged != channel:
                raise SimulationError(
                    f"lane {lane} read host channel {channel} where the "
                    f"first lane read channel {logged}")
            return value

        return read


class LaneStore:
    """The lanes of a ``backend="batch"`` ring beyond lane 0."""

    def __init__(self, ring: "Ring", size: int):
        self.ring = ring
        self.size = size
        self._others: List[LaneState] = []
        self.broadcast()

    def broadcast(self) -> None:
        """Set every lane to the ring's current datapath (lane 0)."""
        self._others = [read_lane(self.ring)] * (self.size - 1)

    def _check(self, lane: int) -> None:
        if not 0 <= lane < self.size:
            raise ConfigurationError(
                f"lane must be 0..{self.size - 1}, got {lane}"
            )

    # -- lane state ----------------------------------------------------

    def state(self, lane: int) -> LaneState:
        """A copy of one lane's datapath."""
        self._check(lane)
        if lane == 0:
            return read_lane(self.ring)
        return copy.deepcopy(self._others[lane - 1])

    def capture(self) -> List[LaneState]:
        """Copies of lanes 1..B-1 (lane 0 is the ring's own state)."""
        return copy.deepcopy(self._others)

    def restore(self, others: List[LaneState]) -> None:
        """Load a :meth:`capture` of a store with the same lane count."""
        if len(others) != self.size - 1:
            raise SimulationError(
                f"lane snapshot holds {len(others) + 1} lanes; ring has "
                f"{self.size}"
            )
        self._others = copy.deepcopy(list(others))

    def outs(self, layer: int, position: int) -> List[int]:
        """The OUT register of one Dnode, per lane."""
        self.ring.dnode(layer, position)  # validates the address
        addr = (layer, position)
        return ([self.ring._dnodes[layer][position]._out]
                + [state.outs[addr] for state in self._others])

    def push_fifo(self, layer: int, position: int, channel: int,
                  values, lane: Optional[int] = None) -> None:
        """Queue words on one lane's input FIFO (None: every lane)."""
        if lane is None:
            self.ring.push_fifo(layer, position, channel, values)
            return
        self._check(lane)
        queue = self.ring.fifo(layer, position, channel)
        if isinstance(values, (int, np.integer)):
            values = [values]
        words = [word.check(int(v), "FIFO push") for v in values]
        if lane == 0:
            queue.extend(words)
        else:
            self.extend_fifo((layer, position, channel), words, lane)

    def extend_fifo(self, key: Tuple[int, int, int], words: List[int],
                    lane: Optional[int] = None) -> None:
        """Append checked *words* to FIFO *key* of lane *lane*, or of
        every lane beyond lane 0 when None."""
        indices = (range(len(self._others)) if lane is None
                   else (lane - 1,))
        for i in indices:
            state = self._others[i]
            fifos = dict(state.fifos)
            fifos[key] = fifos.get(key, []) + words
            self._others[i] = replace(state, fifos=fifos)

    # -- execution -----------------------------------------------------

    def visit(self, action: Callable[[int], T]) -> List[T]:
        """Call ``action(lane)`` once per lane, lane 0 last, with that
        lane's datapath in the ring and the shared clock state — the
        cycle count and the local-sequencer counters — at its value on
        entry; returns the results in lane order."""
        ring = self.ring
        others = self._others
        results: List = [None] * self.size
        if others:
            start = ring.cycles
            sequencers = [dn.local for layer in ring._dnodes
                          for dn in layer]
            phase = [local._counter for local in sequencers]
            lane0 = read_lane(ring)
            try:
                for lane in range(self.size - 1, 0, -1):
                    write_lane(ring, others[lane - 1])
                    ring.cycles = start
                    for local, counter in zip(sequencers, phase):
                        local._counter = counter
                    try:
                        results[lane] = action(lane)
                    finally:
                        others[lane - 1] = read_lane(ring)
            finally:
                write_lane(ring, lane0)
                ring.cycles = start
                for local, counter in zip(sequencers, phase):
                    local._counter = counter
        results[0] = action(0)
        return results

    def run(self, advance, cycles: int, bus: int, host_in) -> None:
        """Run a span of *cycles* on every lane through *advance*, the
        ring's scalar engine ladder, each lane with its own host input.

        If a lane other than lane 0 raises (a strict-FIFO underflow),
        the ring is left holding lane 0 as it was on entry.
        """
        if host_in is None:
            self.visit(lambda lane: advance(cycles, bus, None))
            return
        if type(host_in) is HostWindow:
            if host_in.lanes not in (0, self.size):
                raise SimulationError(
                    f"host window carries {host_in.lanes} lanes; ring "
                    f"has {self.size}"
                )
            inputs = host_in.lane
        else:
            while cycles > READER_SPAN:
                self.run(advance, READER_SPAN, bus, host_in)
                cycles -= READER_SPAN
            inputs = _LaneReader(self.ring, host_in, self.size,
                                 cycles).lane
        self.visit(lambda lane: advance(cycles, bus, inputs(lane)))


__all__ = ["LaneState", "LaneStore", "read_lane", "write_lane"]
