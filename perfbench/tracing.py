"""Span tracing for the benchmark's traced run.

The wrappers live here, not in the program: :func:`install` replaces the
public entry points of each layer (``ConfigMemory.apply_plane``,
``RingSystem.run``/``step``, ``Ring.run``/``step``, the scenario
pipelines, the farm's wire codecs, ``RingFarm.submit`` and
``FarmWorker.execute``) with timing shims and
:meth:`Tracer.uninstall` puts the originals back.  Nothing is wrapped in
an untraced run.

A span is ``[id, parent, trace, name, start, end]``.  Spans of one job
share ``trace``.  Synchronous nesting is followed through a context
variable, which also crosses ``asyncio.to_thread``; farm spans that run
in server tasks or worker threads find their job through the job id
they carry (``key``) instead.

Self time generalises to overlapping asynchronous spans by a sweep:
every instant of the traced window is attributed to the open span that
started last, and instants with no open span are ``unattributed``.  For
properly nested spans this is the usual "duration minus children", and
by construction the self times plus ``unattributed`` add up to the
window's wall time.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import heapq
import inspect
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# [id, parent, trace, name, start, end]
Span = list

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: Ring counters read through the public metrics surface, by metric name.
_RING_COUNTERS = {
    "core.plan_compiles": "ring_plan_compiles_total",
    "core.plan_hits": "plan_cache_hits_total",
    "core.plan_misses": "plan_cache_misses_total",
    "core.native_cycles": "native_cycles_total",
    "core.native_fallback_cycles": "native_fallback_cycles_total",
    "core.macro_cycles": "macro_step_cycles_total",
}

#: RingProfile fields reported per ring, by metric name.
_PROFILE_FIELDS = {
    "core.interpreted_cycles": "interpreted_cycles",
    "core.interpreted_s": "interpreted_seconds",
    "core.fastpath_cycles": "fastpath_cycles",
    "core.fastpath_s": "fastpath_seconds",
    "core.compile_s": "compile_seconds",
}


def _ring_counters(ring) -> Dict[str, float]:
    from repro.analysis.metrics import MetricsRegistry
    snapshot = MetricsRegistry.of(ring).collect()
    return {name: snapshot.value(metric)
            for name, metric in _RING_COUNTERS.items()}


class _RingWatch:
    """Counter deltas and an attached profile for one ring."""

    def __init__(self, ring):
        self.ring = ring
        self.banked = Counter()
        self.baseline = _ring_counters(ring)
        self._profile_cm = ring.profile()
        self.profile = self._profile_cm.__enter__()

    def bank(self) -> None:
        """Fold the deltas so far in; a reset may drop lane counters."""
        now = _ring_counters(self.ring)
        for name, value in now.items():
            self.banked[name] += value - self.baseline[name]

    def rebase(self) -> None:
        self.baseline = _ring_counters(self.ring)

    def finish(self) -> Dict[str, float]:
        self.bank()
        totals = dict(self.banked)
        for name, field in _PROFILE_FIELDS.items():
            totals[name] = getattr(self.profile, field)
        self._profile_cm.__exit__(None, None, None)
        return totals


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._open: Dict[object, List[int]] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._rings: Dict[int, _RingWatch] = {}

    # -- spans ---------------------------------------------------------

    def open(self, name: str, key=None, trace=None):
        """Start a span; returns the handle :meth:`close` takes.

        *key* names the job a span belongs to when the call stack cannot
        tell (server tasks, worker threads); *trace* sets the trace id
        of a root span.
        """
        current = _CURRENT.get()
        stack = self._open.get(key) if key is not None else None
        if stack:
            parent, trace = stack[-1], key
        elif current is not None:
            parent, trace = current[0], current[2]
        else:
            parent = None
            if trace is None:
                trace = key
        span = [next(self._ids), parent, trace, name, perf_counter(), None]
        self.spans.append(span)
        if key is not None:
            self._open.setdefault(key, []).append(span[0])
        return span, _CURRENT.set(span), key

    def close(self, handle) -> None:
        span, token, key = handle
        span[5] = perf_counter()
        _CURRENT.reset(token)
        if key is not None:
            stack = self._open[key]
            stack.remove(span[0])
            if not stack:
                del self._open[key]

    def current(self) -> Optional[Span]:
        return _CURRENT.get()

    # -- installation --------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             key: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording shim.

        *key* maps the call's arguments to a job id; *before* runs with
        ``(tracer, args)`` just before the span opens.
        """
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            async def shim(*args, **kwargs):
                if before is not None:
                    before(tracer, args)
                handle = tracer.open(
                    name, key(*args, **kwargs) if key else None)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.close(handle)
        else:
            def shim(*args, **kwargs):
                if before is not None:
                    before(tracer, args)
                handle = tracer.open(
                    name, key(*args, **kwargs) if key else None)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(handle)

        functools.update_wrapper(shim, original)
        setattr(owner, attr, shim)
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` outright (restored by uninstall)."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- rings ---------------------------------------------------------

    def watch(self, ring) -> _RingWatch:
        watch = self._rings.get(id(ring))
        if watch is None:
            watch = self._rings[id(ring)] = _RingWatch(ring)
        return watch

    def ring_totals(self) -> Dict[str, float]:
        """Counter deltas and profile totals summed over watched rings;
        detaches the profiles."""
        totals: Counter = Counter(
            {name: 0 for name in (*_RING_COUNTERS, *_PROFILE_FIELDS)})
        for watch in self._rings.values():
            totals.update(watch.finish())
        self._rings.clear()
        return dict(totals)

    # -- output --------------------------------------------------------

    def write(self, path, origin: float, phase_of: Callable) -> None:
        """Write every span as one JSON line, times relative to *origin*."""
        with gzip.open(path, "wt") as out:
            for sid, parent, trace, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace,
                    "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "phase": phase_of(start)}) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points; returns *tracer*."""
    import repro.farm.server as server_module
    from repro.core.config_memory import ConfigMemory
    from repro.core.ring import Ring
    from repro.farm.farm import RingFarm
    from repro.farm.worker import FarmWorker
    from repro.host.system import RingSystem
    from repro.kernels import scenarios

    def see_ring(t: Tracer, args) -> None:
        t.watch(args[0])

    def count_run(t: Tracer, args) -> None:
        ring, cycles = args[0], args[1]
        t.watch(ring)
        t.counts["core.run_cycles"] += cycles
        parent = t.current()
        if parent is not None and parent[3] == "host.system_run":
            t.counts["host.bulk_cycles"] += cycles

    def job_key(_self, job, *args, **kwargs):
        return job.job_id

    for fn in ("run_synth_voice", "run_effects_chain"):
        tracer.wrap(scenarios, fn, "kernels.pipeline")
    tracer.wrap(ConfigMemory, "apply_plane", "config.apply_plane")
    tracer.wrap(RingSystem, "run", "host.system_run")
    tracer.wrap(RingSystem, "step", "host.step")
    tracer.wrap(Ring, "run", "core.run", before=count_run)
    tracer.wrap(Ring, "step", "core.step", before=see_ring)

    reset = Ring.reset

    def banked_reset(ring):
        # Lane engines (and their plan-cache counters) are dropped by a
        # reset, so bank the deltas first.  The bookkeeping gets its own
        # span so that it shows as tracing cost, not as driver time.
        handle = tracer.open("trace.bookkeeping")
        try:
            watch = tracer.watch(ring)
            watch.bank()
            reset(ring)
            watch.rebase()
        finally:
            tracer.close(handle)

    tracer.patch(Ring, "reset", banked_reset)

    tracer.wrap(server_module, "job_from_wire", "farm.server.decode",
                key=lambda data: data.get("job_id"))
    tracer.wrap(server_module, "result_to_wire", "farm.server.encode",
                key=lambda result: result.job_id)
    tracer.wrap(RingFarm, "submit", "farm.farm.submit", key=job_key)
    tracer.wrap(RingFarm, "fingerprint_of", "farm.farm.fingerprint",
                key=job_key)
    tracer.wrap(FarmWorker, "execute", "farm.worker.call", key=job_key)
    return tracer


# -- analysis ----------------------------------------------------------


def exclusive_times(spans, t0: float, t1: float
                    ) -> Tuple[Dict[int, float], float]:
    """Attribute each instant of ``[t0, t1]`` to one span.

    The owner of an instant is the open span that started last (ties go
    to the span created last).  Returns ``({span id: seconds},
    unattributed seconds)``; the values add up to ``t1 - t0``.
    """
    events = []
    for sid, _parent, _trace, _name, start, end in spans:
        start, end = max(start, t0), min(end, t1)
        if start < end:
            events.append((start, 1, sid))
            events.append((end, 0, sid))
    # At equal times, closes (0) come before opens (1).
    events.sort()
    started = {}
    for when, kind, sid in events:
        if kind:
            started[sid] = when
    own: Dict[int, float] = defaultdict(float)
    unattributed = 0.0
    heap: List[Tuple[float, int]] = []
    closed = set()
    prev = t0
    for when, kind, sid in events:
        while heap and -heap[0][1] in closed:
            heapq.heappop(heap)
        if when > prev:
            if heap:
                own[-heap[0][1]] += when - prev
            else:
                unattributed += when - prev
            prev = when
        if kind:
            heapq.heappush(heap, (-started[sid], -sid))
        else:
            closed.add(sid)
    unattributed += t1 - prev
    return dict(own), unattributed


def layer_table(spans, t0: float, t1: float) -> dict:
    """Per-span-name calls, busy and self seconds over ``[t0, t1]``.

    Returns ``{"rows": {name: {...}}, "unattributed_s": ..,
    "wall_s": ..}`` where the self times plus ``unattributed_s`` equal
    ``wall_s``.
    """
    inside = [s for s in spans if s[4] >= t0 and s[5] <= t1]
    own, unattributed = exclusive_times(inside, t0, t1)
    rows: Dict[str, dict] = {}
    for sid, _parent, _trace, name, start, end in inside:
        row = rows.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                     "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += own.get(sid, 0.0)
    return {"rows": rows, "unattributed_s": unattributed,
            "wall_s": t1 - t0}


def span_totals(spans) -> Dict[str, dict]:
    """Calls and busy seconds per span name over every span."""
    totals: Dict[str, dict] = {}
    for _sid, _parent, _trace, name, start, end in spans:
        row = totals.setdefault(name, {"calls": 0, "busy_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
    return totals
