"""Bulk host I/O: whole stream/tap windows for :meth:`Ring.run`.

The data controller's direct ports are stream interfaces, not a
per-word handshake, and with no controller attached their token rates
are static: every routed host channel is read exactly once per cycle
and every tap samples once per cycle.  So the host I/O of an
observer-free span of ``n`` cycles is known before the span runs, and
it can move in blocks:

* a **stream** becomes the list of words its channel presents at each
  cycle offset (the queued words, then the idle value once it runs
  dry) — consumed by cycle index;
* a **tap** becomes the tapped Dnode's post-commit OUT history over the
  span, with the tap's ``skip``/``every``/``limit`` schedule applied
  afterwards by the host.

A :class:`HostPort` (a :class:`~repro.host.system.RingSystem`, backed
by its :class:`~repro.host.streams.DataController`) opens one
:class:`HostWindow` per span and closes it when the span ends.
:meth:`Ring.run` splits a run into spans at every observer capture
point, and the port leaves the last cycle's clock edge (tap sample,
stream advance) pending until after the observer has fired — exactly
where per-cycle stepping performs it — so host queues and tap samples
are in sync with the per-cycle reference at every split.

Every engine consumes the same window: the interpreter and the
per-cycle plan call it as a host reader and append tap samples after
each commit; the macro kernel indexes the word lists by cycle and
appends inline; the native kernel slices the word arrays and the
per-Dnode visible-out arrays it already builds; the batch engine reads
per-lane rows and records per-lane OUT rows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: A tapped Dnode address: (layer, position).
TapKey = Tuple[int, int]


class HostWindow:
    """The host side of one observer-free span of a bulk run.

    Attributes:
        base: ``ring.cycles`` when the span starts (cycle offset 0).
        words: ``{channel: words}`` for every routed host channel — a
            list of ints (one per cycle offset) on a scalar port, an
            ``(n, lanes)`` array on a lane port.
        history: ``{(layer, position): samples}`` — the tapped Dnode's
            post-commit OUT after each executed cycle, ints on a scalar
            port and ``(lanes,)`` arrays on a lane port.
        lanes: True for a lane (batch) port.
    """

    __slots__ = ("ring", "base", "words", "history", "lanes", "_arrays")

    def __init__(self, ring, words: Dict[int, Sequence],
                 taps: Sequence[TapKey], lanes: bool = False):
        self.ring = ring
        self.base = ring.cycles
        self.words = words
        self.lanes = lanes
        self.history: Dict[TapKey, List] = {key: [] for key in taps}
        self._arrays: Dict[int, np.ndarray] = {}

    def __call__(self, channel: int):
        """Per-cycle host reader: the word presented this cycle."""
        return self.words[channel][self.ring.cycles - self.base]

    def array(self, channel: int) -> np.ndarray:
        """A channel's words as an int64 array (built once per span)."""
        arr = self._arrays.get(channel)
        if arr is None:
            arr = np.array(self.words[channel], dtype=np.int64)
            self._arrays[channel] = arr
        return arr

    def recorders(self) -> Tuple[tuple, ...]:
        """``(dnode, append)`` pairs for the per-cycle scalar engines:
        after each commit they call ``append(dnode._out)``."""
        ring = self.ring
        return tuple((ring._dnodes[l][p], samples.append)
                     for (l, p), samples in self.history.items())

    def lane_recorders(self, outs: np.ndarray) -> Tuple[tuple, ...]:
        """``(out row view, record)`` pairs for the batch engine: after
        each commit it calls ``record(view)``, which keeps a copy of the
        tapped Dnode's lane OUTs (lane 0 alone on a scalar port)."""
        pairs = []
        for (l, p), samples in self.history.items():
            if self.lanes:
                record = (lambda row, _a=samples.append: _a(row.copy()))
            else:
                record = (lambda row, _a=samples.append: _a(int(row[0])))
            pairs.append((outs[l, p], record))
        return tuple(pairs)


class HostPort:
    """Something :meth:`Ring.run` can stream whole spans through.

    ``open_window(ring, cycles)`` returns the :class:`HostWindow` for the
    next *cycles* cycles.  ``close_window(window, edges)`` accounts the
    reads of every executed cycle and performs the clock edge (tap
    sample, stream advance) of the first *edges* of them; the ring then
    performs any remaining edge itself through :meth:`clock_edge`, after
    the observers of that cycle have fired.
    """

    def open_window(self, ring, cycles: int) -> HostWindow:
        raise NotImplementedError

    def close_window(self, window: HostWindow, edges: int) -> None:
        raise NotImplementedError

    def clock_edge(self, ring) -> None:
        raise NotImplementedError


def tap_selection(seen: int, count: int, skip: int, every: int) -> slice:
    """Which of *count* new per-cycle samples a tap keeps.

    A tap that has seen *seen* cycles keeps the cycle numbered
    ``seen + j + 1`` when it is past *skip* and on the *every* grid —
    ``(seen + j - skip) % every == 0`` — so the kept offsets are one
    strided slice.
    """
    first = skip - seen
    if first < 0:
        first %= every
    return slice(first, count, every)


__all__ = ["HostPort", "HostWindow", "TapKey", "tap_selection"]
