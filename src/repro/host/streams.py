"""The specific input/output data controller of the Systolic Ring.

Paper §4.1/§4.2: the switches manage "data communications with the host
processor by direct dedicated ports", and the local mode "joined to a
specific input/output Data controller ... allows very efficient and high
bandwidth data oriented computation".

* :class:`StreamChannel` — an input stream presented on a direct port:
  one 16-bit word per fabric cycle (the head value is stable within a
  cycle; the channel advances at the clock edge).
* :class:`OutputTap` — samples a Dnode's output register every cycle
  (optionally after a pipeline-fill delay), collecting result streams.
* :class:`DataController` — the bank of channels and taps a
  :class:`~repro.host.system.RingSystem` drives each cycle.

With the ring's batch backend (``backend="batch"``) the same port
serves B independent streams at once: construct the controller with
``batch=B`` and it hands out :class:`BatchStreamChannel` /
:class:`BatchOutputTap` instead — per-lane queues, per-lane underrun
accounting, per-lane sample streams — while keeping the exact same
per-cycle protocol (``current``/``advance``/``observe``).

Every channel and tap also has a bulk form of that protocol
(``window``/``consume``/``absorb``): the controller hands whole windows
of words to :meth:`Ring.run <repro.core.ring.Ring.run>` and folds the
engine's OUT histories back into the taps, ending in the state the
per-cycle protocol would reach (see :mod:`repro.core.hostio`).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

from repro import word
from repro.core.batchpath import LANE_DTYPE
from repro.core.hostio import HostWindow, tap_selection
from repro.errors import HostError


def _clock_queue(queue: Deque[int], cycles: int, edges: int, read: bool,
                 latched: bool):
    """Bulk clock of one stream queue over *cycles* executed cycles.

    Equivalent to *cycles* rounds of a read (when the fabric *read* the
    channel) and a clock edge, the last edge left pending when
    ``edges < cycles``: every read of a dry cycle is one underrun, unless
    a read before the window already *latched* that cycle's underrun.
    Pops the consumed words; returns ``(delivered, underruns, latch)``.
    """
    avail = len(queue)
    dry = cycles - avail if read and cycles > avail else 0
    if dry and latched and not avail:
        dry -= 1
    taken = min(edges, avail)
    if taken == avail:
        queue.clear()
    else:
        for _ in range(taken):
            queue.popleft()
    if edges:
        latched = False
    if edges < cycles and read and cycles > avail:
        latched = True
    return taken, dry, latched


class StreamChannel:
    """One direct host->fabric input port (a synchronous word stream).

    The value returned by :meth:`current` stays constant within a cycle;
    :meth:`advance` (called once per cycle by the data controller) moves to
    the next word.  When the stream runs dry the port presents *idle_value*
    and counts the underrun, so pipeline drain cycles are harmless but
    observable.
    """

    def __init__(self, values: Optional[Iterable[int]] = None,
                 idle_value: int = 0):
        self._queue: Deque[int] = deque()
        self.idle_value = word.check(idle_value, "idle value")
        self.delivered = 0
        self.underruns = 0
        self._dry_seen = False
        if values is not None:
            self.push(values)

    def push(self, values) -> None:
        """Queue one word or an iterable of words for streaming."""
        if isinstance(values, int):
            values = [values]
        for v in values:
            self._queue.append(word.check(v, "stream word"))

    def current(self) -> int:
        """The word presented on the port this cycle.

        The port is level-sensitive: however many agents read it within
        one cycle (datapath, trace observer, metrics), a dry queue counts
        at most one underrun until the next clock edge.
        """
        if not self._queue:
            if not self._dry_seen:
                self._dry_seen = True
                self.underruns += 1
            return self.idle_value
        return self._queue[0]

    def advance(self) -> None:
        """Clock edge: consume the presented word."""
        self._dry_seen = False
        if self._queue:
            self._queue.popleft()
            self.delivered += 1

    def window(self, cycles: int) -> List[int]:
        """The words presented over the next *cycles* cycles: the queued
        words, then the idle value once the stream runs dry."""
        words = list(islice(self._queue, cycles))
        if len(words) < cycles:
            words.extend([self.idle_value] * (cycles - len(words)))
        return words

    def consume(self, cycles: int, edges: int, read: bool) -> None:
        """Bulk clock: *cycles* cycles ran, the first *edges* of them
        clocked (``edges`` is *cycles* or one less) — see
        :func:`_clock_queue`."""
        taken, dry, self._dry_seen = _clock_queue(
            self._queue, cycles, edges, read, self._dry_seen)
        self.delivered += taken
        self.underruns += dry

    def drop_next(self) -> int:
        """Fault model: silently lose the next queued word.

        Unlike :meth:`advance`, the lost word is neither delivered nor
        counted — exactly what a flipped valid-bit on the host link
        looks like.  Returns how many words were dropped (0 when the
        queue was already dry).
        """
        if not self._queue:
            return 0
        self._queue.popleft()
        return 1

    def pending(self) -> int:
        """Words still queued."""
        return len(self._queue)

    @property
    def words_delivered(self) -> int:
        """Total words actually consumed by the fabric (all lanes)."""
        return self.delivered

    def __repr__(self) -> str:
        return (
            f"StreamChannel(pending={len(self._queue)}, "
            f"delivered={self.delivered})"
        )


class BatchStreamChannel:
    """One direct host->fabric port carrying B independent lane streams.

    Per-lane queues share the channel's clock: :meth:`current` presents
    one word per lane (idle value where a lane has run dry, with the
    underrun counted *for that lane only*), :meth:`advance` consumes the
    presented word on every lane that had one.  Push the same stimulus
    to every lane with ``push(values)`` or a lane-specific stream with
    ``push(values, lane=i)``.
    """

    def __init__(self, batch: int, idle_value: int = 0):
        if batch < 1:
            raise HostError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self.idle_value = word.check(idle_value, "idle value")
        self._queues: List[Deque[int]] = [deque() for _ in range(batch)]
        self.delivered = [0] * batch
        self.underruns = [0] * batch
        self._dry_seen = [False] * batch

    def push(self, values, lane: Optional[int] = None) -> None:
        """Queue words on one lane (or broadcast to all when None)."""
        if isinstance(values, int):
            values = [values]
        checked = [word.check(int(v), "stream word") for v in values]
        if lane is None:
            for queue in self._queues:
                queue.extend(checked)
            return
        if not 0 <= lane < self.batch:
            raise HostError(
                f"lane must be 0..{self.batch - 1}, got {lane}"
            )
        self._queues[lane].extend(checked)

    def current(self) -> np.ndarray:
        """The per-lane words presented on the port this cycle.

        Like the scalar port, repeated reads within one cycle count at
        most one underrun per dry lane until the next clock edge.
        """
        out = np.empty(self.batch, dtype=np.int64)
        for lane, queue in enumerate(self._queues):
            if queue:
                out[lane] = queue[0]
            else:
                if not self._dry_seen[lane]:
                    self._dry_seen[lane] = True
                    self.underruns[lane] += 1
                out[lane] = self.idle_value
        return out

    def advance(self) -> None:
        """Clock edge: every non-empty lane consumes its word."""
        for lane, queue in enumerate(self._queues):
            self._dry_seen[lane] = False
            if queue:
                queue.popleft()
                self.delivered[lane] += 1

    def window(self, cycles: int) -> np.ndarray:
        """The ``(cycles, lanes)`` words presented over the next *cycles*
        cycles (each lane's queued words, then the idle value)."""
        words = np.full((cycles, self.batch), self.idle_value,
                        dtype=LANE_DTYPE)
        for lane, queue in enumerate(self._queues):
            head = list(islice(queue, cycles))
            words[:len(head), lane] = head
        return words

    def consume(self, cycles: int, edges: int, read: bool) -> None:
        """Bulk clock of every lane (see :meth:`StreamChannel.consume`)."""
        for lane, queue in enumerate(self._queues):
            taken, dry, self._dry_seen[lane] = _clock_queue(
                queue, cycles, edges, read, self._dry_seen[lane])
            self.delivered[lane] += taken
            self.underruns[lane] += dry

    def drop_next(self) -> int:
        """Fault model: silently lose the next word on every lane.

        Returns the number of words dropped (lanes already dry lose
        nothing); none are counted as delivered.
        """
        dropped = 0
        for queue in self._queues:
            if queue:
                queue.popleft()
                dropped += 1
        return dropped

    def pending(self) -> int:
        """Words still queued across all lanes."""
        return sum(len(queue) for queue in self._queues)

    def lane_pending(self, lane: int) -> int:
        return len(self._queues[lane])

    @property
    def words_delivered(self) -> int:
        """Total words actually consumed by the fabric (all lanes)."""
        return sum(self.delivered)

    def __repr__(self) -> str:
        return (
            f"BatchStreamChannel(lanes={self.batch}, "
            f"pending={self.pending()}, delivered={self.words_delivered})"
        )


class OutputTap:
    """Samples one Dnode's output register each cycle.

    Args:
        layer, position: which Dnode to observe.
        skip: number of initial cycles to ignore (pipeline fill).
        every: sample period — keep one sample every *every* cycles
            (1 = every cycle).
        limit: stop collecting after this many samples (None = unbounded).
    """

    def __init__(self, layer: int, position: int, skip: int = 0,
                 every: int = 1, limit: Optional[int] = None):
        if skip < 0:
            raise HostError(f"skip must be >= 0, got {skip}")
        if every < 1:
            raise HostError(f"every must be >= 1, got {every}")
        if limit is not None and limit < 0:
            raise HostError(f"limit must be >= 0, got {limit}")
        self.layer = layer
        self.position = position
        self.skip = skip
        self.every = every
        self.limit = limit
        self.samples: List[int] = []
        self._seen = 0

    def observe(self, value: int) -> None:
        """Record this cycle's post-edge output value (if selected)."""
        self._seen += 1
        if self._seen <= self.skip:
            return
        if (self._seen - self.skip - 1) % self.every != 0:
            return
        if self.limit is not None and len(self.samples) >= self.limit:
            return
        self.samples.append(value)

    def absorb(self, values: List[int]) -> None:
        """:meth:`observe` each of *values* (consecutive cycles) in bulk."""
        seen = self._seen
        self._seen = seen + len(values)
        kept = values[tap_selection(seen, len(values), self.skip,
                                    self.every)]
        if self.limit is not None:
            kept = kept[:max(0, self.limit - len(self.samples))]
        self.samples.extend(kept)

    @property
    def full(self) -> bool:
        """True once *limit* samples are collected."""
        return self.limit is not None and len(self.samples) >= self.limit

    @property
    def sample_count(self) -> int:
        """Total words collected (all lanes)."""
        return len(self.samples)

    def __repr__(self) -> str:
        return (
            f"OutputTap(D{self.layer}.{self.position}, "
            f"samples={len(self.samples)})"
        )


class BatchOutputTap:
    """Samples one Dnode's output register across every lane each cycle.

    Same skip/every/limit schedule as :class:`OutputTap` (all lanes run
    in lockstep, so one schedule serves the whole batch); the collected
    streams are per lane: ``samples[lane]`` / :meth:`lane`.
    """

    def __init__(self, batch: int, layer: int, position: int,
                 skip: int = 0, every: int = 1,
                 limit: Optional[int] = None):
        if batch < 1:
            raise HostError(f"batch must be >= 1, got {batch}")
        if skip < 0:
            raise HostError(f"skip must be >= 0, got {skip}")
        if every < 1:
            raise HostError(f"every must be >= 1, got {every}")
        if limit is not None and limit < 0:
            raise HostError(f"limit must be >= 0, got {limit}")
        self.batch = batch
        self.layer = layer
        self.position = position
        self.skip = skip
        self.every = every
        self.limit = limit
        self.samples: List[List[int]] = [[] for _ in range(batch)]
        self._seen = 0

    def observe(self, values) -> None:
        """Record this cycle's per-lane output values (if selected)."""
        self._seen += 1
        if self._seen <= self.skip:
            return
        if (self._seen - self.skip - 1) % self.every != 0:
            return
        if self.limit is not None and len(self.samples[0]) >= self.limit:
            return
        for lane, value in enumerate(values):
            self.samples[lane].append(int(value))

    def absorb(self, rows: List[np.ndarray]) -> None:
        """:meth:`observe` each per-lane row of *rows* in bulk."""
        seen = self._seen
        self._seen = seen + len(rows)
        kept = rows[tap_selection(seen, len(rows), self.skip, self.every)]
        if self.limit is not None:
            kept = kept[:max(0, self.limit - len(self.samples[0]))]
        if kept:
            for lane, column in enumerate(np.stack(kept).T.tolist()):
                self.samples[lane].extend(column)

    def lane(self, lane: int) -> List[int]:
        """One lane's collected sample stream (a copy)."""
        return list(self.samples[lane])

    @property
    def full(self) -> bool:
        """True once *limit* samples are collected (per lane)."""
        return self.limit is not None and len(self.samples[0]) >= self.limit

    @property
    def sample_count(self) -> int:
        """Total words collected (all lanes)."""
        return sum(len(stream) for stream in self.samples)

    def __repr__(self) -> str:
        return (
            f"BatchOutputTap(D{self.layer}.{self.position}, "
            f"lanes={self.batch}, samples={len(self.samples[0])}/lane)"
        )


class DataController:
    """Bank of stream channels and output taps.

    Two protocols drive it.  Per cycle (:meth:`host_in`, :meth:`collect`,
    :meth:`advance`) it serves :meth:`RingSystem.step
    <repro.host.system.RingSystem.step>`, the reference.  In bulk
    (:meth:`open_window`, :meth:`close_window`) it backs the
    :class:`~repro.core.hostio.HostPort` an uncontrolled
    :meth:`RingSystem.run <repro.host.system.RingSystem.run>` hands to
    :meth:`Ring.run <repro.core.ring.Ring.run>`: each observer-free span
    of cycles gets its stream words as arrays consumed by cycle index and
    returns its tap samples as OUT histories — with queues, ``delivered``,
    ``underruns`` and tap samples ending exactly where per-cycle stepping
    leaves them.

    With ``batch > 1`` (the ring's batch backend) every channel is a
    :class:`BatchStreamChannel` and every tap a :class:`BatchOutputTap`;
    both protocols are unchanged — words are per-lane arrays and taps
    collect one stream per lane.
    """

    def __init__(self, batch: int = 1):
        if batch < 1:
            raise HostError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self._channels: Dict[int, object] = {}
        self.taps: List[object] = []

    def channel(self, index: int):
        """The stream channel behind direct-port index (created on demand)."""
        if index < 0:
            raise HostError(f"channel index must be >= 0, got {index}")
        if index not in self._channels:
            if self.batch > 1:
                self._channels[index] = BatchStreamChannel(self.batch)
            else:
                self._channels[index] = StreamChannel()
        return self._channels[index]

    def stream(self, index: int, values, lane: Optional[int] = None):
        """Queue *values* on channel *index* (convenience).

        *lane* targets one lane of a batch channel; with the default
        (None) a batch channel broadcasts the words to every lane.
        """
        ch = self.channel(index)
        if lane is None:
            ch.push(values)
        elif self.batch > 1:
            ch.push(values, lane=lane)
        else:
            raise HostError(
                f"lane={lane} requires a batch data controller"
            )
        return ch

    def add_tap(self, layer: int, position: int, **kwargs):
        """Attach an output tap to a Dnode; returns it for later reading."""
        if self.batch > 1:
            tap = BatchOutputTap(self.batch, layer, position, **kwargs)
        else:
            tap = OutputTap(layer, position, **kwargs)
        self.taps.append(tap)
        return tap

    def host_in(self, index: int) -> int:
        """Resolver handed to :meth:`repro.core.ring.Ring.step`."""
        return self.channel(index).current()

    def open_window(self, ring, cycles: int) -> HostWindow:
        """Stream words and tap points of the next *cycles* cycles.

        Every channel the routing reads is created on demand, as its
        first per-cycle read would.
        """
        words = {index: self.channel(index).window(cycles)
                 for index in ring.host_channels()}
        taps = {}
        for tap in self.taps:
            ring.dnode(tap.layer, tap.position)  # validates the address
            taps[(tap.layer, tap.position)] = None
        return HostWindow(ring, words, tuple(taps), lanes=self.batch > 1)

    def close_window(self, window: HostWindow, edges: int) -> None:
        """Account a finished span: the reads of every executed cycle,
        the clock edges (stream advance, tap sample) of the first
        *edges*."""
        cycles = window.ring.cycles - window.base
        for index, ch in self._channels.items():
            ch.consume(cycles, edges, index in window.words)
        for tap in self.taps:
            tap.absorb(window.history[(tap.layer, tap.position)][:edges])

    def advance(self) -> None:
        """Clock edge: every channel moves to its next word."""
        for ch in self._channels.values():
            ch.advance()

    def collect(self, ring) -> None:
        """Sample every tap from the post-edge fabric state.

        Batch taps read the per-lane OUT values straight from the ring's
        batch engine; scalar taps read the scalar OUT register.
        """
        if self.batch > 1:
            engine = ring.batch
            for tap in self.taps:
                tap.observe(engine.lane_outs(tap.layer, tap.position))
            return
        for tap in self.taps:
            tap.observe(ring.dnode(tap.layer, tap.position).out)

    def capture_state(self) -> dict:
        """Checkpoint the host side: queued words, counters, tap samples.

        The fabric snapshot (:mod:`repro.core.snapshot`) covers only the
        ring; rollback-replay of a *streamed* run must also rewind the
        stream queues and tap collections, or replay would re-consume
        words that are already gone.  Pure-Python state, deep-copied.
        """
        channels = {}
        for index, ch in self._channels.items():
            if isinstance(ch, BatchStreamChannel):
                channels[index] = {
                    "lanes": [list(queue) for queue in ch._queues],
                    "delivered": list(ch.delivered),
                    "underruns": list(ch.underruns),
                }
            else:
                channels[index] = {
                    "queue": list(ch._queue),
                    "delivered": ch.delivered,
                    "underruns": ch.underruns,
                }
        taps = []
        for tap in self.taps:
            if isinstance(tap, BatchOutputTap):
                taps.append({"samples": [list(s) for s in tap.samples],
                             "seen": tap._seen})
            else:
                taps.append({"samples": list(tap.samples),
                             "seen": tap._seen})
        return {"channels": channels, "taps": taps}

    def restore_state(self, state: dict) -> None:
        """Rewind to a :meth:`capture_state` checkpoint (same topology)."""
        for index, saved in state["channels"].items():
            ch = self.channel(index)
            if isinstance(ch, BatchStreamChannel):
                ch._queues = [deque(lane) for lane in saved["lanes"]]
                ch.delivered = list(saved["delivered"])
                ch.underruns = list(saved["underruns"])
                ch._dry_seen = [False] * ch.batch
            else:
                ch._queue = deque(saved["queue"])
                ch.delivered = saved["delivered"]
                ch.underruns = saved["underruns"]
                ch._dry_seen = False
        if len(state["taps"]) != len(self.taps):
            raise HostError(
                f"checkpoint has {len(state['taps'])} taps, controller "
                f"has {len(self.taps)}")
        for tap, saved in zip(self.taps, state["taps"]):
            if isinstance(tap, BatchOutputTap):
                tap.samples = [list(s) for s in saved["samples"]]
            else:
                tap.samples = list(saved["samples"])
            tap._seen = saved["seen"]

    def total_words_in(self) -> int:
        """Words actually streamed into the fabric so far (all lanes)."""
        return sum(ch.words_delivered for ch in self._channels.values())

    def total_words_out(self) -> int:
        """Samples collected across all taps so far (all lanes)."""
        return sum(tap.sample_count for tap in self.taps)
