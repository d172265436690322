"""The Systolic Ring fabric: layered Dnodes closed into a ring, plus the
cycle-accurate clock engine.

Paper §4.2: "We use a curled, pipelined systolic structure ... All the
D-nodes form a ring, which length (Dnodes layers number) and width (Dnodes
per-layer number) can easily be scaled.  The Dnodes are organized in
layers; a Dnodes layer is connected to the two adjacent ones by also
dynamically reconfigurable switch components."

Topology conventions used throughout the package:

* ``layers`` x ``width`` Dnodes; ``dnode(layer, position)``.
* ``switch(k)`` feeds layer ``k`` and is fed by layer ``(k - 1) % layers``
  — the ring closure is simply switch 0 reading the last layer.
* Data advances one layer per cycle (systolic); every value read during a
  cycle is the value latched at the previous clock edge, so evaluation
  order never matters.

Each :meth:`Ring.step` models one clock:

1. every Dnode evaluates its active microword (global or local mode) and
   stages its writes;
2. the clock edge commits register/OUT writes, shifts every switch's
   feedback pipelines, applies FIFO pops, and advances local sequencers.

The shared ``bus`` value and host stream channels are supplied by the
caller (the controller / data controller live in :mod:`repro.controller`
and :mod:`repro.host`): per cycle through a host reader, or for a whole
:meth:`Ring.run` through a :class:`~repro.core.hostio.HostPort` whose
windows carry stream words by cycle index and collect tap samples.

Two execution engines drive the same semantics:

* the **interpreter** (:meth:`Ring._step_interpreted`) re-resolves switch
  routing and microword dispatch every cycle — the reference
  implementation;
* the **fast path** (:mod:`repro.core.fastpath`) pre-decodes the current
  configuration into direct per-Dnode closures and is used automatically
  whenever the configuration has been stable for a full cycle.  Every
  configuration mutation invalidates it, so reconfiguration always takes
  effect on the very next cycle, exactly as before.

Two compounding layers sit on top (see ``docs/architecture.md``, "Plan
cache & macro-stepping"): compiled plans are retained in an LRU
:class:`~repro.core.plancache.PlanCache` keyed by
:meth:`Ring.config_fingerprint`, so multiplexing between known
configurations re-adopts each plan in one lookup instead of recompiling;
and ``macro_step=K`` fuses steady-state runs into generated kernels
(:mod:`repro.core.macropath`) that pay Python dispatch once per
sequencer period instead of once per Dnode per cycle.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import word
from repro.core.config_memory import ConfigMemory
from repro.core.dnode import Dnode, DnodeInputs, DnodeMode
from repro.core.fastpath import compile_plan
from repro.core.hostio import HostPort, HostWindow
from repro.core.isa import FEEDBACK_DEPTH
from repro.core.macropath import compile_macro
from repro.core.nativepath import try_native
from repro.core.plancache import DEFAULT_CAPACITY, Ineligible, PlanCache
from repro.core.switch import _ROUTE_KIND_CODES, PortKind, PortSource, Switch
from repro.errors import ConfigurationError, SimulationError

#: Shortest bulk host window that pays for macro/native code generation
#: on a configuration's first visit.  Codegen costs about 1 ms per fused
#: kernel, which the fused tiers win back only over a few hundred cycles;
#: a configuration re-adopted from the plan cache is recurring, so its
#: kernels are generated whatever the window length.
FIRST_VISIT_CODEGEN_CYCLES = 128

#: Fallback reason recorded when first-visit codegen is deferred.
DEFERRED_CODEGEN = "codegen deferred: first visit, short window"

#: Route kind code of a host port in switch fingerprints.
_HOST_ROUTE = _ROUTE_KIND_CODES[PortKind.HOST]

HostReader = Callable[[int], int]

RingObserver = Callable[["Ring"], None]


class Fingerprint(tuple):
    """A configuration fingerprint that computes its hash once.

    Equal to (and hashing like) the plain tuple; the plan-cache lookups
    of one visit to a configuration then share a single walk of the
    nested microword structure.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash

    def __reduce__(self):
        # Hashes are per process: never carry the cached one along.
        return Fingerprint, (tuple(self),)


class _CycleObserver:
    """One registered per-cycle callback with its capture schedule.

    ``interval`` samples the observer every N-th cycle (measured on the
    post-commit :attr:`Ring.cycles` value, so interval 4 fires after
    cycles 4, 8, 12, ...); ``start``/``stop`` bound an inclusive capture
    window on the same cycle index.  The schedule is what lets
    :meth:`Ring.run` keep batches on the compiled fast path between
    captures instead of dropping to per-cycle dispatch.
    """

    __slots__ = ("callback", "interval", "start", "stop")

    def __init__(self, callback: RingObserver, interval: int = 1,
                 start: Optional[int] = None, stop: Optional[int] = None):
        if interval < 1:
            raise ConfigurationError(
                f"observer interval must be >= 1, got {interval}"
            )
        if start is not None and start < 0:
            raise ConfigurationError(
                f"observer window start must be >= 0, got {start}"
            )
        if (start is not None and stop is not None and stop < start):
            raise ConfigurationError(
                f"observer window stop {stop} precedes start {start}"
            )
        self.callback = callback
        self.interval = interval
        self.start = start
        self.stop = stop

    @property
    def every_cycle(self) -> bool:
        return (self.interval == 1 and self.start is None
                and self.stop is None)

    def due(self, cycle: int) -> bool:
        """Does this observer capture after the cycle numbered *cycle*?"""
        if self.start is not None and cycle < self.start:
            return False
        if self.stop is not None and cycle > self.stop:
            return False
        return cycle % self.interval == 0

    def next_due(self, cycle: int) -> Optional[int]:
        """First cycle index > *cycle* that captures (None = never again)."""
        nxt = cycle + 1
        if self.start is not None and nxt < self.start:
            nxt = self.start
        remainder = nxt % self.interval
        if remainder:
            nxt += self.interval - remainder
        if self.stop is not None and nxt > self.stop:
            return None
        return nxt


@dataclass
class RingProfile:
    """Wall-clock accounting of one :meth:`Ring.profile` session.

    Every engine rung gets its own cycle count and seconds: the
    interpreter, the per-cycle fast-path plan, fused macro kernels,
    time-vectorized native kernels and the batch lane engine.  Plan
    compilation is booked separately, so a workload's coverage of each
    rung (and the compile overhead paid for it) is directly measurable.
    """

    #: Engine rungs, slowest first; each has ``<rung>_cycles`` and
    #: ``<rung>_seconds`` fields.
    RUNGS = ("interpreted", "fastpath", "macro", "native", "batch")

    interpreted_cycles: int = 0
    interpreted_seconds: float = 0.0
    fastpath_cycles: int = 0
    fastpath_seconds: float = 0.0
    macro_cycles: int = 0
    macro_seconds: float = 0.0
    native_cycles: int = 0
    native_seconds: float = 0.0
    batch_cycles: int = 0
    batch_seconds: float = 0.0
    plan_compiles: int = 0
    compile_seconds: float = 0.0

    def book(self, rung: str, cycles: int, seconds: float) -> None:
        """Add *cycles* and *seconds* to one rung's counters."""
        cycles_field = rung + "_cycles"
        seconds_field = rung + "_seconds"
        setattr(self, cycles_field, getattr(self, cycles_field) + cycles)
        setattr(self, seconds_field,
                getattr(self, seconds_field) + seconds)

    @property
    def compiled_cycles(self) -> int:
        """Cycles executed by any compiled rung (everything but the
        interpreter)."""
        return (self.fastpath_cycles + self.macro_cycles
                + self.native_cycles + self.batch_cycles)

    @property
    def total_cycles(self) -> int:
        return self.interpreted_cycles + self.compiled_cycles

    @property
    def fastpath_fraction(self) -> float:
        """Fraction of profiled cycles executed by a compiled engine."""
        total = self.total_cycles
        return self.compiled_cycles / total if total else 0.0

    def cycles_per_second(self) -> float:
        """Aggregate throughput over everything profiled (0 if untimed)."""
        elapsed = self.compile_seconds + sum(
            getattr(self, rung + "_seconds") for rung in self.RUNGS)
        return self.total_cycles / elapsed if elapsed > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict of every counter plus the derived rates."""
        out: Dict[str, float] = {}
        for rung in self.RUNGS:
            out[rung + "_cycles"] = getattr(self, rung + "_cycles")
            out[rung + "_seconds"] = getattr(self, rung + "_seconds")
        out.update({
            "plan_compiles": self.plan_compiles,
            "compile_seconds": self.compile_seconds,
            "fastpath_fraction": self.fastpath_fraction,
            "cycles_per_second": self.cycles_per_second(),
        })
        return out


@dataclass(frozen=True)
class RingGeometry:
    """Shape of a ring: number of layers and Dnodes per layer.

    The paper's named configurations map to:

    * Ring-8  = 4 layers x 2 wide (the prototyped version),
    * Ring-16 = 8 layers x 2 wide (the application benchmarks),
    * Ring-64 = 32 layers x 2 wide (the Fig. 7 SoC).
    """

    layers: int
    width: int = 2
    pipeline_depth: int = FEEDBACK_DEPTH

    def __post_init__(self) -> None:
        if self.layers < 2:
            raise ConfigurationError(
                f"a ring needs at least 2 layers, got {self.layers}"
            )
        if self.width < 1:
            raise ConfigurationError(
                f"layer width must be >= 1, got {self.width}"
            )
        if self.pipeline_depth < 1:
            raise ConfigurationError(
                f"pipeline depth must be >= 1, got {self.pipeline_depth}"
            )

    @property
    def dnodes(self) -> int:
        """Total Dnode count (the paper's Ring-N number)."""
        return self.layers * self.width

    @classmethod
    def ring(cls, dnodes: int, width: int = 2,
             pipeline_depth: int = FEEDBACK_DEPTH) -> "RingGeometry":
        """Build the canonical geometry for a Ring-*dnodes* fabric."""
        if dnodes % width != 0:
            raise ConfigurationError(
                f"Ring-{dnodes} is not divisible into width-{width} layers"
            )
        return cls(layers=dnodes // width, width=width,
                   pipeline_depth=pipeline_depth)


class Ring:
    """A complete operative layer: Dnodes, switches, FIFOs, clock engine."""

    #: The single source of truth for execution engines: every selector
    #: (``Ring(backend=)``, :meth:`set_backend`, the CLI ``--backend``
    #: choices, the docs engine table) derives from this registry, so
    #: adding an engine is one entry here.
    BACKEND_REGISTRY = {
        "interpreter": "reference cycle-by-cycle interpreter",
        "fastpath": "pre-decoded per-cycle closure plans",
        "native": "time-vectorized NumPy macro kernels "
                  "(optional Numba jit), falling back to "
                  "macro-step/fastpath",
        "batch": "lane-vectorized NumPy engine over batch_size streams",
    }

    #: Valid values of the ``backend`` selector.
    BACKENDS = tuple(BACKEND_REGISTRY)

    @classmethod
    def _check_backend(cls, backend: str) -> None:
        if backend not in cls.BACKEND_REGISTRY:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of "
                f"{cls.BACKENDS}"
            )

    def __init__(self, geometry: RingGeometry,
                 strict_fifos: bool = False,
                 fastpath: bool = True,
                 backend: Optional[str] = None,
                 batch_size: int = 1,
                 plan_cache: int = DEFAULT_CAPACITY,
                 macro_step: int = 0):
        self.geometry = geometry
        self.strict_fifos = strict_fifos
        if backend is None:
            backend = "fastpath" if fastpath else "interpreter"
        self._check_backend(backend)
        if batch_size < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {batch_size}"
            )
        if batch_size > 1 and backend != "batch":
            raise ConfigurationError(
                f"batch_size {batch_size} requires backend='batch', "
                f"got {backend!r}"
            )
        if macro_step < 0:
            raise ConfigurationError(
                f"macro step must be >= 0, got {macro_step}"
            )
        self.backend = backend
        self.batch_size = batch_size
        # The scalar fast path also backs batch mode at B=1: one lane of
        # NumPy-array indexing is strictly slower than the scalar plan
        # (~6x in BENCH_batch.json), and the lane-0 writeback contract is
        # trivially the scalar state itself.  The vector engine is only
        # engaged at B>1 or once `ring.batch` has been handed out.  The
        # native tier sits on top of the fast path (its per-cycle
        # remainder and fall-back ladder), so it enables the scalar plan
        # machinery too.
        self.fastpath_enabled = (backend in ("fastpath", "native")
                                 or (backend == "batch" and batch_size == 1))
        #: Configuration-fingerprinted LRU cache of compiled plans (and
        #: macro kernels).  Capacity 0 disables caching entirely.
        self.plan_cache = PlanCache(plan_cache)
        #: Macro-step fusion target: 0/1 = off, K>1 = fuse runs of at
        #: least K steady-state cycles into generated macro kernels.
        self.macro_step = macro_step
        #: Cycles executed by fused macro kernels (coverage metric).
        self.macro_cycles = 0
        # Active macro kernel for the current configuration + entry phase
        # (None = not compiled, an Ineligible verdict = cannot fuse).
        self._macro = None
        #: Native-tier lifetime counters: cycles executed by
        #: time-vectorized kernels, plans compiled, and cycles a
        #: ``backend="native"`` ring had to hand to the fall-back ladder
        #: (ineligible configuration, sub-period remainders, unsafe FIFO
        #: windows).  Host-side accounting like ``macro_cycles`` —
        #: preserved across :meth:`reset` and snapshot restore.
        self.native_cycles = 0
        self.native_compiles = 0
        self.native_fallback_cycles = 0
        # Active native plan for the current configuration + entry phase
        # (None = not compiled, an Ineligible verdict = cannot vectorize).
        self._native = None
        #: Why a fused rung was refused, by named reason: the tier's
        #: ineligibility verdict (``"native: operand self-recurrence"``)
        #: or :data:`DEFERRED_CODEGEN`.  Counts refused steady spans;
        #: host-side lifetime accounting like ``native_cycles``.
        self.engine_fallbacks: Dict[str, int] = {}
        # True while the active plan was re-adopted through the plan
        # cache (a recurring configuration), False on a first visit.
        self._revisit = False
        # Configuration-derived values, dropped on every mutation.
        self._fingerprint: Optional[tuple] = None
        self._host_channels: Optional[Tuple[int, ...]] = None
        self._dnodes: List[List[Dnode]] = [
            [Dnode(layer, pos) for pos in range(geometry.width)]
            for layer in range(geometry.layers)
        ]
        self._switches: List[Switch] = [
            Switch(k, geometry.width, geometry.pipeline_depth)
            for k in range(geometry.layers)
        ]
        self._fifos: Dict[Tuple[int, int, int], Deque[int]] = {}
        self.config = ConfigMemory(self)
        self.cycles = 0
        self.fifo_underflows = 0
        #: Last value driven on the shared bus (updated by step()/run(),
        #: so bus probes observe the controller-driven value instead of a
        #: stale default).
        self.last_bus = 0
        #: FIFO depth high-water marks, keyed like :attr:`_fifos`
        #: ((layer, position, channel)); updated on every push.
        self.fifo_high_water: Dict[Tuple[int, int, int], int] = {}
        #: Fast-path lifecycle counters (always-on, config-path cost only).
        self.plan_compiles = 0
        self.plan_invalidations = 0
        #: Robustness-layer counters (:mod:`repro.robustness`): faults
        #: applied to this fabric, checkpoints taken, rollbacks performed
        #: and cycles re-executed recovering.  Host-side lifetime
        #: accounting like the plan counters — preserved across
        #: :meth:`reset` and snapshot restore (a rollback must still
        #: count as a rollback afterwards).
        self.faults_injected = 0
        self.checkpoints = 0
        self.rollbacks = 0
        self.recovery_cycles = 0
        self._observers: List[_CycleObserver] = []
        self._legacy_trace: Optional[RingObserver] = None
        self._profile: Optional[RingProfile] = None
        #: Composed post-commit hook: None when nothing observes, a bare
        #: callback for the single always-on observer, otherwise a
        #: dispatcher that applies each observer's capture schedule.
        self._trace: Optional[Callable[["Ring"], None]] = None
        # Steady-state fast path: compiled plan + invalidation wiring.
        # `_plan` is the active pre-decoded engine (None = interpret);
        # `_config_dirty` means a mutation happened during/after the last
        # interpreted cycle, deferring compilation until the configuration
        # has been stable for one full cycle (so controller-driven
        # hardware multiplexing never pays compile overhead).
        self._plan = None
        self._config_dirty = True
        #: Extra callbacks fired on every configuration mutation (the
        #: batch engine hooks in here, reusing the fast-path wiring).
        self._invalidation_listeners: List[Callable[[], None]] = []
        #: Lazily created batch engine (backend == "batch" only).
        self._batch_engine = None
        for layer_dnodes in self._dnodes:
            for dn in layer_dnodes:
                dn.on_config_change = self._invalidate_fastpath
        for sw in self._switches:
            sw.config.on_change = self._invalidate_fastpath

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------

    @property
    def batch(self):
        """The attached :class:`~repro.core.batchpath.BatchRing` engine.

        Only meaningful with ``backend="batch"``; created lazily (the
        first access broadcasts the ring's current scalar state across
        the lanes).
        """
        if self.backend != "batch":
            raise ConfigurationError(
                f"ring backend is {self.backend!r}, not 'batch'"
            )
        return self._ensure_batch()

    def _ensure_batch(self):
        if self._batch_engine is None:
            from repro.core.batchpath import BatchRing
            self._batch_engine = BatchRing(self, self.batch_size)
        return self._batch_engine

    def _lane_engine_active(self) -> bool:
        """Should step()/run() dispatch to the batch engine this cycle?"""
        return self.backend == "batch" and (
            self.batch_size > 1 or self._batch_engine is not None)

    def set_backend(self, backend: str,
                    batch_size: Optional[int] = None) -> None:
        """Switch execution engine (any :attr:`BACKEND_REGISTRY` key).

        Safe at any point between cycles: the scalar state always
        reflects the last committed cycle (the batch engine writes lane
        0 back after every run), so the new engine picks up exactly
        where the old one stopped.  Entering batch mode broadcasts that
        state across *batch_size* lanes; ``"native"`` keeps the scalar
        state and compiles time-vectorized kernels for eligible
        steady-state spans.
        """
        self._check_backend(backend)
        if batch_size is None:
            batch_size = self.batch_size if backend == "batch" else 1
        if batch_size < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {batch_size}"
            )
        if batch_size > 1 and backend != "batch":
            raise ConfigurationError(
                f"batch_size {batch_size} requires backend='batch', "
                f"got {backend!r}"
            )
        if self._batch_engine is not None and (
                backend != "batch"
                or self._batch_engine.batch != batch_size):
            self._batch_engine.detach()
            self._batch_engine = None
        self.backend = backend
        self.batch_size = batch_size
        self.fastpath_enabled = (backend in ("fastpath", "native")
                                 or (backend == "batch" and batch_size == 1))
        self._plan = None
        self._macro = None
        self._native = None
        self._config_dirty = True

    def set_plan_cache(self, capacity: int) -> None:
        """Resize (or with 0, disable) the compiled-plan cache.

        Replaces the cache, so existing entries and lifetime counters are
        dropped; the active plan (if any) is unaffected.  The batch
        engine's kernel cache is resized to match.
        """
        self.plan_cache = PlanCache(capacity)
        if self._batch_engine is not None:
            self._batch_engine.set_plan_cache(capacity)

    def set_macro_step(self, macro_step: int) -> None:
        """Set the macro-step fusion target (0/1 disables fusion)."""
        if macro_step < 0:
            raise ConfigurationError(
                f"macro step must be >= 0, got {macro_step}"
            )
        self.macro_step = macro_step
        self._macro = None

    def add_invalidation_listener(
            self, listener: Callable[[], None]) -> None:
        """Hook *listener* into every configuration-mutation event."""
        self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(
            self, listener: Callable[[], None]) -> None:
        self._invalidation_listeners = [
            l for l in self._invalidation_listeners if l is not listener
        ]

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    def dnode(self, layer: int, position: int) -> Dnode:
        """The Dnode at (*layer*, *position*)."""
        if not 0 <= layer < self.geometry.layers:
            raise ConfigurationError(
                f"layer must be 0..{self.geometry.layers - 1}, got {layer}"
            )
        if not 0 <= position < self.geometry.width:
            raise ConfigurationError(
                f"position must be 0..{self.geometry.width - 1}, "
                f"got {position}"
            )
        return self._dnodes[layer][position]

    def switch(self, index: int) -> Switch:
        """The switch feeding layer *index* (fed by the previous layer)."""
        if not 0 <= index < self.geometry.layers:
            raise ConfigurationError(
                f"switch index must be 0..{self.geometry.layers - 1}, "
                f"got {index}"
            )
        return self._switches[index]

    def all_dnodes(self) -> List[Dnode]:
        """Every Dnode, layer-major order."""
        return [dn for layer in self._dnodes for dn in layer]

    def upstream_layer(self, switch_index: int) -> int:
        """The layer whose outputs feed switch *switch_index*."""
        return (switch_index - 1) % self.geometry.layers

    # ------------------------------------------------------------------
    # FIFO interface (Dnode sources FIFO1 / FIFO2)
    # ------------------------------------------------------------------

    def fifo(self, layer: int, position: int, channel: int) -> Deque[int]:
        """The input FIFO *channel* (1 or 2) of a Dnode; created on demand."""
        if channel not in (1, 2):
            raise ConfigurationError(f"FIFO channel must be 1 or 2, got {channel}")
        self.dnode(layer, position)  # validates the address
        key = (layer, position, channel)
        if key not in self._fifos:
            self._fifos[key] = deque()
        return self._fifos[key]

    def push_fifo(self, layer: int, position: int, channel: int,
                  values) -> None:
        """Append one or more raw words to a Dnode input FIFO."""
        queue = self.fifo(layer, position, channel)
        if isinstance(values, int):
            values = [values]
        else:
            values = list(values)
        for v in values:
            queue.append(word.check(v, "FIFO push"))
        key = (layer, position, channel)
        depth = len(queue)
        if depth > self.fifo_high_water.get(key, 0):
            self.fifo_high_water[key] = depth
        if self._batch_engine is not None:
            # Keep the lane FIFOs coherent: a scalar push reaches every
            # lane (lane-specific loads go through BatchRing.push_fifo).
            self._batch_engine.push_fifo(layer, position, channel, values)

    def _fifo_peek(self, layer: int, position: int, channel: int) -> int:
        queue = self._fifos.get((layer, position, channel))
        if not queue:
            if self.strict_fifos:
                raise SimulationError(
                    f"D{layer}.{position} read empty FIFO{channel} at cycle "
                    f"{self.cycles}"
                )
            self.fifo_underflows += 1
            return 0
        return queue[0]

    def _fifo_pop(self, layer: int, position: int, channel: int) -> bool:
        """Apply one requested pop; report whether a word actually left.

        An underflowed pop (empty queue) dequeues nothing: it raises in
        strict mode and counts toward :attr:`fifo_underflows` otherwise,
        so pop statistics never drift from real dequeues.
        """
        queue = self._fifos.get((layer, position, channel))
        if queue:
            queue.popleft()
            return True
        if self.strict_fifos:
            raise SimulationError(
                f"D{layer}.{position} popped empty FIFO{channel} at cycle "
                f"{self.cycles}"
            )
        self.fifo_underflows += 1
        return False

    # ------------------------------------------------------------------
    # Clock engine
    # ------------------------------------------------------------------

    def add_observer(self, callback: RingObserver, interval: int = 1,
                     start: Optional[int] = None,
                     stop: Optional[int] = None) -> RingObserver:
        """Register a post-commit observer; multiple observers chain.

        ``interval`` fires the callback only after cycles whose post-commit
        index is a multiple of it; ``start``/``stop`` bound an inclusive
        cycle window.  A sampled observer (interval > 1 or a window) keeps
        :meth:`run` on the compiled fast path between captures: the batch
        is chunk-run up to each capture point instead of dropping to
        per-cycle dispatch.  Re-adding an already-registered callback
        replaces its schedule.  Returns *callback* (the removal handle).
        """
        # Equality, not identity: bound methods (the usual observer form)
        # are re-created on each attribute access.
        self._observers = [o for o in self._observers
                           if o.callback != callback]
        self._observers.append(
            _CycleObserver(callback, interval, start, stop))
        self._rebuild_trace()
        return callback

    def remove_observer(self, callback: RingObserver) -> None:
        """Unregister one observer; other observers are untouched."""
        self._observers = [o for o in self._observers
                           if o.callback != callback]
        if self._legacy_trace == callback:
            self._legacy_trace = None
        self._rebuild_trace()

    def set_trace(self, callback: Optional[Callable[["Ring"], None]]) -> None:
        """Install a per-cycle observer, called after each commit.

        Legacy single-hook interface: each call replaces only the hook
        previously installed *through this method* — observers registered
        with :meth:`add_observer` are never touched, so a waveform trace
        and a metrics observer can coexist.
        """
        if self._legacy_trace is not None:
            self.remove_observer(self._legacy_trace)
        if callback is not None:
            self.add_observer(callback)
            self._legacy_trace = callback

    def _rebuild_trace(self) -> None:
        observers = self._observers
        if not observers:
            self._trace = None
        elif len(observers) == 1 and observers[0].every_cycle:
            self._trace = observers[0].callback
        else:
            chain = tuple(observers)

            def dispatch(ring: "Ring", _chain=chain) -> None:
                cycle = ring.cycles
                for observer in _chain:
                    if observer.due(cycle):
                        observer.callback(ring)

            self._trace = dispatch

    def _trace_stride(self) -> Optional[int]:
        """Cycles from now until the next observer capture (None = never)."""
        cycle = self.cycles
        best: Optional[int] = None
        for observer in self._observers:
            nxt = observer.next_due(cycle)
            if nxt is not None and (best is None or nxt < best):
                best = nxt
        return None if best is None else best - cycle

    @contextmanager
    def profile(self, warmup: int = 0, bus: int = 0,
                host_in: Optional[HostReader] = None):
        """Context manager timing the engines while the block runs.

        Yields a :class:`RingProfile` that accumulates wall-clock seconds
        and cycle counts separately for the interpreter, the compiled fast
        path, and plan compilation.  Profiling adds one predicate per
        dispatch decision — nothing on the per-cycle fast path itself.

        Args:
            warmup: cycles to run *untimed* before the profile attaches.
                First-touch costs (plan compilation, macro/native codegen,
                any Numba jit) land in the warm-up chunk instead of the
                measured region, so the profile reports steady-state
                throughput — the number the compiler autopilot scores
                candidate mappings by.
            bus: bus value driven during the warm-up cycles.
            host_in: host resolver used during the warm-up cycles (the
                profiled block supplies its own).
        """
        if self._profile is not None:
            raise SimulationError("ring is already being profiled")
        if warmup < 0:
            raise SimulationError(
                f"profile warmup must be >= 0, got {warmup}")
        if warmup:
            self.run(warmup, bus=bus, host_in=host_in)
        profile = RingProfile()
        self._profile = profile
        try:
            yield profile
        finally:
            self._profile = None

    def step(self, bus: int = 0,
             host_in: Optional[HostReader] = None) -> None:
        """Advance the fabric by one clock cycle.

        Dispatches to the pre-decoded fast path when the current
        configuration has a valid compiled plan; otherwise interprets the
        cycle and (once the configuration has been stable for a full
        cycle) compiles a fresh plan for subsequent cycles.

        Args:
            bus: value currently driven on the shared bus by the
                configuration controller.
            host_in: resolver for ``HOST`` switch port sources — called as
                ``host_in(channel)`` and expected to return the stream word
                presented on that direct port this cycle.  Unrouted fabrics
                may leave it None.
        """
        word.check(bus, "bus value")
        self.last_bus = bus
        self._advance(1, bus, host_in)
        if self._trace is not None:
            self._trace(self)

    def _advance(self, cycles: int, bus: int, host_in) -> None:
        """Execute *cycles* clocks on the engines, firing no observer.

        The lane engine takes the whole span when active.  Otherwise the
        span is interpreted cycle by cycle until a compiled plan is
        adopted (from the plan cache) or compiled (after one stable
        cycle); the rest runs on the compiled ladder — a single cycle on
        the per-cycle plan, longer spans through :meth:`_run_steady`.
        *host_in* is a per-cycle reader or a :class:`HostWindow`, whose
        tap samples the interpreter records after each commit.
        """
        if self._lane_engine_active():
            engine = self._ensure_batch()
            self._run_rung(engine, "batch", cycles, bus, host_in)
            engine.store_lane(0)
            return
        recorders = (host_in.recorders() if type(host_in) is HostWindow
                     else ())
        while cycles > 0:
            plan = self._plan
            if plan is None and self.fastpath_enabled:
                plan = self._adopt_cached_plan()
            if plan is not None:
                if cycles > 1:
                    self._run_steady(plan, cycles, bus, host_in)
                else:
                    self._run_rung(plan, "fastpath", 1, bus, host_in)
                return
            profile = self._profile
            if profile is None:
                self._step_interpreted(bus, host_in)
            else:
                began = perf_counter()
                try:
                    self._step_interpreted(bus, host_in)
                finally:
                    profile.interpreted_seconds += perf_counter() - began
                profile.interpreted_cycles += 1
            for dn, record in recorders:
                record(dn._out)
            self._maybe_compile()
            cycles -= 1

    def _run_rung(self, engine, rung: str, cycles: int, bus: int,
                  host_in) -> None:
        """Execute *cycles* through one compiled engine, timing the rung
        (a :attr:`RingProfile.RUNGS` name) if profiled."""
        profile = self._profile
        if profile is None:
            engine.run(cycles, bus, host_in)
            return
        before = self.cycles
        began = perf_counter()
        try:
            engine.run(cycles, bus, host_in)
        finally:
            profile.book(rung, self.cycles - before,
                         perf_counter() - began)

    def _step_interpreted(self, bus: int,
                          host_in: Optional[HostReader]) -> None:
        """One clock cycle through the reference interpreter."""
        geometry = self.geometry

        # Phase 1: resolve inputs and evaluate every Dnode combinationally.
        for layer in range(geometry.layers):
            sw = self._switches[layer]
            upstream = self._dnodes[self.upstream_layer(layer)]
            for pos in range(geometry.width):
                dn = self._dnodes[layer][pos]
                inputs = DnodeInputs(
                    in1=self._resolve_port(sw, upstream, pos, 1, bus, host_in),
                    in2=self._resolve_port(sw, upstream, pos, 2, bus, host_in),
                    bus=bus,
                    fifo_peek=(lambda ch, _l=layer, _p=pos:
                               self._fifo_peek(_l, _p, ch)),
                    rp_read=sw.rp_read,
                )
                dn.evaluate(inputs)

        # Phase 2: clock edge.  Capture the OUT values that were visible
        # this cycle *before* committing, so pipeline shifts use them.
        visible_outs = [
            [dn.out for dn in layer_dnodes] for layer_dnodes in self._dnodes
        ]
        for layer in range(geometry.layers):
            for pos in range(geometry.width):
                dn = self._dnodes[layer][pos]
                pops = dn.commit()
                for channel in pops:
                    if self._fifo_pop(layer, pos, channel):
                        dn.count_fifo_pop()
        for k in range(geometry.layers):
            self._switches[k].shift(visible_outs[self.upstream_layer(k)])
        self.cycles += 1

    def _invalidate_fastpath(self) -> None:
        """Configuration mutated: drop the compiled plan, defer recompile.

        Wired into every configuration write path — Dnode microwords and
        modes, local-sequencer slots and LIMIT, switch routing, and thereby
        every :class:`~repro.core.config_memory.ConfigMemory` write.

        The dropped plan stays in :attr:`plan_cache`: the next cycle
        looks the new configuration up by fingerprint and re-adopts a
        cached plan with zero interpreted cycles when it was seen before.
        """
        if self._plan is not None:
            self._plan = None
            self.plan_invalidations += 1
        self._macro = None
        self._native = None
        self._fingerprint = None
        self._host_channels = None
        self._config_dirty = True
        for listener in self._invalidation_listeners:
            listener()

    def config_fingerprint(self) -> tuple:
        """Stable, hashable digest of the full fabric configuration.

        Concatenates every Dnode's fingerprint (mode + executable
        microwords, layer-major order) with every switch's routing
        fingerprint.  Each component caches its own tuple and drops it on
        mutation, and the whole digest is cached until the next
        configuration mutation, so repeated lookups cost nothing.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = self._fingerprint = Fingerprint((
                tuple(dn.config_fingerprint()
                      for layer in self._dnodes for dn in layer),
                tuple(sw.config.fingerprint() for sw in self._switches),
            ))
        return fingerprint

    def _adopt_cached_plan(self):
        """Plan-cache lookup for the current configuration.

        On a hit the cached plan is adopted immediately — including on
        the first cycle after a reconfiguration, which previously always
        interpreted.  On a miss while the configuration is freshly
        mutated, a fingerprint that has missed before is evidently part
        of a multiplexing working set and is compiled eagerly; a
        first-time fingerprint keeps the legacy deferred policy (so a
        never-repeating per-cycle reconfiguration stream still compiles
        nothing).  Either way the configuration is recurring, which
        lifts the first-visit deferral of macro/native codegen.
        """
        cache = self.plan_cache
        if not cache.capacity:
            return None
        key = ("plan", self.config_fingerprint())
        plan = cache.get(key)
        if plan is None and self._config_dirty and cache.note_miss(key):
            plan = self._compile_plan_timed()
            cache.put(key, plan)
        if plan is not None:
            self._plan = plan
            self._config_dirty = False
            self._revisit = True
        return plan

    def adopt_cached_plan(self) -> bool:
        """Re-adopt a compiled plan for the current configuration now.

        Public hook for restore paths (checkpoint rollback, farm worker
        job switches): after the configuration settles, one fingerprint
        lookup re-activates a cached plan immediately instead of waiting
        for the first ``step()`` to do it lazily.  Returns ``True`` when
        a compiled plan is active afterwards.  The vector batch engine
        never adopts scalar plans, so this is a no-op there.
        """
        if not self.fastpath_enabled:
            return False
        if self._plan is not None:
            return True
        return self._adopt_cached_plan() is not None

    def _compile_plan_timed(self):
        """Compile a fast-path plan for the current configuration."""
        profile = self._profile
        if profile is None:
            plan = compile_plan(self)
        else:
            began = perf_counter()
            plan = compile_plan(self)
            profile.compile_seconds += perf_counter() - began
            profile.plan_compiles += 1
        self.plan_compiles += 1
        return plan

    def _maybe_compile(self) -> None:
        """Compile a plan once the configuration survived a stable cycle."""
        if self._config_dirty:
            self._config_dirty = False
        elif self.fastpath_enabled and self._plan is None:
            plan = self._compile_plan_timed()
            self._plan = plan
            self._revisit = False
            cache = self.plan_cache
            if cache.capacity:
                cache.put(("plan", self.config_fingerprint()), plan)

    def _ensure_fused(self, tier: str, codegen: bool):
        """The *tier* (``"macro"``/``"native"``) kernel for the current
        configuration + entry phase, or None when the rung is refused.

        Kernels are cached in :attr:`plan_cache` keyed by tier, entry
        phase *and* fingerprint, so re-entering a known phase of a known
        configuration skips codegen entirely.  A failed compile is cached
        the same way, as an :class:`~repro.core.plancache.Ineligible`
        verdict naming the reason, so plane switching never re-runs a
        doomed compile.  With *codegen* False (a short first-visit bulk
        window) a cache miss refuses the rung without compiling.
        """
        attr = "_" + tier
        kernel = getattr(self, attr)
        if kernel is not None and (type(kernel) is Ineligible
                                   or kernel.matches_phase()):
            return self._verdict(kernel)
        cache = self.plan_cache
        key = None
        if cache.capacity:
            phase = tuple(
                dn.local._counter for layer in self._dnodes
                for dn in layer if dn.mode is DnodeMode.LOCAL
            )
            key = (tier, phase, self.config_fingerprint())
            kernel = cache.get(key)
            if kernel is not None:
                setattr(self, attr, kernel)
                return self._verdict(kernel)
        if not codegen:
            self._note_fallback(DEFERRED_CODEGEN)
            return None
        if tier == "native":
            kernel = try_native(self)
        else:
            kernel = (compile_macro(self)
                      or Ineligible("macro", "period too long to unroll"))
        if tier == "native" and type(kernel) is not Ineligible:
            self.native_compiles += 1
        setattr(self, attr, kernel)
        if key is not None:
            cache.put(key, kernel)
        return self._verdict(kernel)

    def _verdict(self, kernel):
        """*kernel*, or None (with the reason counted) for a verdict."""
        if type(kernel) is Ineligible:
            self._note_fallback(f"{kernel.tier}: {kernel.reason}")
            return None
        return kernel

    def _note_fallback(self, reason: str) -> None:
        self.engine_fallbacks[reason] = (
            self.engine_fallbacks.get(reason, 0) + 1)

    def _run_steady(self, plan, cycles: int, bus: int, host_in) -> None:
        """Run *cycles* on the compiled engines: native, macro, per-cycle.

        With ``backend="native"``, the longest FIFO-safe period-multiple
        prefix executes through the time-vectorized kernel; whatever it
        cannot take (ineligible configuration, sub-period remainder,
        unsafe FIFO window) falls down the ladder: macro-step fusion
        first, the per-cycle plan last.  Otherwise, with macro-stepping
        enabled and a long enough span, the bulk of the span executes in
        period-multiples through the fused kernel; the sub-period
        remainder (and everything, when fusion is off or ineligible)
        goes through the per-cycle plan.

        A bulk host window on a configuration's first visit generates no
        new fused kernel unless it spans
        :data:`FIRST_VISIT_CODEGEN_CYCLES`; once the configuration comes
        back through the plan cache, codegen proceeds.
        """
        codegen = (type(host_in) is not HostWindow or self._revisit
                   or cycles >= FIRST_VISIT_CODEGEN_CYCLES)
        k = self.macro_step
        if self.backend == "native":
            native = self._ensure_fused("native", codegen)
            safe = native.safe_cycles(cycles) if native is not None else 0
            if safe:
                self._run_rung(native, "native", safe, bus, host_in)
                cycles -= safe
            if cycles:
                self.native_fallback_cycles += cycles
                # The remainder still deserves fusion even when the user
                # never asked for macro-stepping explicitly.
                k = max(k, 2)
        if k > 1 and cycles >= k:
            macro = self._ensure_fused("macro", codegen)
            if macro is not None and cycles >= max(k, macro.period):
                fused = cycles - cycles % macro.period
                if fused:
                    self._run_rung(macro, "macro", fused, bus, host_in)
                    cycles -= fused
        if cycles:
            self._run_rung(plan, "fastpath", cycles, bus, host_in)

    def run(self, cycles: int, bus: int = 0, host_in=None) -> None:
        """Step the fabric *cycles* times with constant bus/host context.

        In steady state (no observer, valid plan) the whole batch executes
        inside the compiled engines with no per-cycle dispatch.  With
        observers installed, the batch is chunk-run between capture
        points and each due observer fires after its cycle, so only an
        every-cycle observer forces per-cycle chunks.

        *host_in* is either a per-cycle reader (called as
        ``host_in(channel)``) or a :class:`~repro.core.hostio.HostPort`
        such as an uncontrolled :class:`~repro.host.system.RingSystem`.
        A port streams each observer-free chunk as one
        :class:`~repro.core.hostio.HostWindow` — stream words consumed by
        cycle index, tap samples as OUT histories — and performs the
        chunk's last clock edge after that cycle's observers, where
        per-cycle stepping performs it.
        """
        if cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {cycles}")
        word.check(bus, "bus value")
        if self._lane_engine_active():
            # Engage the lane engine even for an empty run, so lane
            # state exists from here on (snapshots capture it).
            self._ensure_batch()
        port = host_in if isinstance(host_in, HostPort) else None
        remaining = cycles
        while remaining > 0:
            chunk = remaining
            trace = self._trace
            fire = False
            if trace is not None:
                stride = self._trace_stride()
                if stride is not None:
                    chunk = min(stride, remaining)
                    fire = chunk == stride
            self.last_bus = bus
            if port is None:
                self._advance(chunk, bus, host_in)
            else:
                self._advance_hosted(port, chunk, bus)
            remaining -= chunk
            if fire:
                trace(self)
            if port is not None:
                port.clock_edge(self)

    def _advance_hosted(self, port: HostPort, cycles: int, bus: int) -> None:
        """One observer-free chunk with its host I/O moved in bulk."""
        window = port.open_window(self, cycles)
        try:
            self._advance(cycles, bus, window)
        except BaseException:
            port.close_window(window, self.cycles - window.base)
            raise
        port.close_window(window, cycles - 1)

    def host_channels(self) -> Tuple[int, ...]:
        """Host channels the current routing reads (each, every cycle);
        cached until the next configuration mutation."""
        channels = self._host_channels
        if channels is None:
            # Switch fingerprints list every non-zero route as
            # (position, port, kind code, index, lane).
            channels = self._host_channels = tuple(sorted({
                index for routes in self.config_fingerprint()[1]
                for _pos, _port, kind, index, _lane in routes
                if kind == _HOST_ROUTE}))
        return channels

    def reset(self) -> None:
        """Datapath reset: registers, pipelines, FIFOs, counters.

        Configuration (microwords, modes, routing) is preserved, matching
        a hardware reset that does not clear configuration SRAM.  FIFO
        queues are cleared *in place*: any queue handle previously handed
        out by :meth:`fifo` (host/DMA producers hold these) stays live and
        keeps feeding the same Dnode after the reset.

        Counter semantics (asserted by ``tests/core/test_reset_semantics``
        — the regression net for future backend work):

        * **Cleared** — everything that describes the *run*: ``cycles``,
          per-Dnode :class:`~repro.core.dnode.DnodeStats`, local-sequencer
          counters, ``fifo_underflows``, ``fifo_high_water``,
          ``last_bus``, and the batch engine's per-lane state (cleared in
          place, so its compiled lane kernels stay valid).
        * **Preserved** — everything that describes the *machine and its
          host*: the configuration and its write counters
          (``config.writes``, per-switch ``config.writes``),
          ``plan_compiles`` / ``plan_invalidations`` / ``macro_cycles``
          / ``native_cycles`` / ``native_compiles`` /
          ``native_fallback_cycles`` / ``engine_fallbacks``,
          the plan cache (contents *and* hit/miss/eviction statistics),
          the robustness counters (``faults_injected``, ``checkpoints``,
          ``rollbacks``, ``recovery_cycles``) — and the active compiled
          plan (scalar or lane): it closes over the stable state
          containers just cleared in place and the configuration is
          untouched, so the next step resumes without recompiling.
        """
        for dn in self.all_dnodes():
            dn.reset()
        for sw in self._switches:
            sw.reset()
        for queue in self._fifos.values():
            queue.clear()
        self.cycles = 0
        self.fifo_underflows = 0
        self.fifo_high_water.clear()
        self.last_bus = 0
        if self._batch_engine is not None:
            self._batch_engine.reset_lanes()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def instructions_executed(self) -> int:
        """Total non-NOP microinstructions executed fabric-wide."""
        return sum(dn.stats.instructions for dn in self.all_dnodes())

    @property
    def arithmetic_ops_executed(self) -> int:
        """Total elementary operator activations (MAC counts as 2)."""
        return sum(dn.stats.arithmetic_ops for dn in self.all_dnodes())

    def utilization(self) -> float:
        """Fraction of Dnode-cycles that executed a real instruction."""
        total = sum(dn.stats.cycles for dn in self.all_dnodes())
        if total == 0:
            return 0.0
        return self.instructions_executed / total

    # ------------------------------------------------------------------

    def _resolve_port(self, sw: Switch, upstream: List[Dnode], pos: int,
                      port: int, bus: int,
                      host_in: Optional[HostReader]) -> int:
        src = sw.config.source_for(pos, port)
        if src.kind is PortKind.ZERO:
            return 0
        if src.kind is PortKind.UP:
            return upstream[src.index].out
        if src.kind is PortKind.RP:
            return sw.rp_read(src.index, src.lane)
        if src.kind is PortKind.BUS:
            return bus
        if src.kind is PortKind.HOST:
            if host_in is None:
                raise SimulationError(
                    f"switch {sw.index} routes port {port} of position "
                    f"{pos} to host channel {src.index}, but no host "
                    f"reader was supplied"
                )
            return word.check(host_in(src.index),
                              f"host channel {src.index}")
        raise SimulationError(f"unhandled port source {src!r}")

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"Ring(Ring-{g.dnodes}: {g.layers}x{g.width}, "
            f"cycle={self.cycles})"
        )


def make_ring(dnodes: int, width: int = 2, **kwargs) -> Ring:
    """Convenience constructor: ``make_ring(8)`` builds the paper's Ring-8."""
    return Ring(RingGeometry.ring(dnodes, width=width), **kwargs)


__all__ = ["Ring", "RingGeometry", "RingProfile", "make_ring", "PortSource"]
