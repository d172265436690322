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
* the **compiled ladder**: once the configuration has been stable for a
  full cycle, it is pre-decoded into a per-cycle plan
  (:mod:`repro.core.fastpath`), and longer spans climb to fused kernels
  — a time-vectorized native kernel (:mod:`repro.core.nativepath`) when
  the configuration is eligible, else a macro kernel
  (:mod:`repro.core.macropath`) that pays Python dispatch once per
  sequencer period.  The ring picks each span's rung from what it
  observes: the eligibility verdict, the span length and whether the
  configuration is recurring.  Every configuration mutation invalidates
  the plan, so reconfiguration always takes effect on the very next
  cycle.

A ``backend="batch"`` ring runs B independent lanes over the same
ladder, one lane after another (:mod:`repro.core.lanes`).

Compiled plans, together with their fused kernels, are retained in an
LRU :class:`~repro.core.plancache.PlanCache` keyed by
:meth:`Ring.config_fingerprint` (see ``docs/architecture.md``, "Plan
cache & the compiled ladder"), so multiplexing between known
configurations re-adopts each plan in one lookup instead of recompiling.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro import word
from repro.core.config_memory import ConfigMemory, Fingerprint
from repro.core.dnode import Dnode, DnodeInputs, DnodeMode
from repro.core.fastpath import compile_plan
from repro.core.hostio import HostPort, HostWindow
from repro.core.isa import FEEDBACK_DEPTH
from repro.core.lanes import LaneStore
from repro.core.macropath import compile_macro
from repro.core.nativepath import try_native
from repro.core.plancache import DEFAULT_CAPACITY, Ineligible, PlanCache
from repro.core.switch import PortKind, PortSource, Switch, host_channels
from repro.errors import ConfigurationError, SimulationError

#: Shortest steady span that pays for macro/native code generation on a
#: configuration's first visit.  Codegen costs about 1 ms per fused
#: kernel, which the fused tiers win back only over a few hundred cycles;
#: a configuration re-adopted from the plan cache is recurring, so its
#: kernels are generated whatever the span length.
FIRST_VISIT_CODEGEN_CYCLES = 128

#: Fallback reason recorded when first-visit codegen is deferred.
DEFERRED_CODEGEN = "codegen deferred: first visit, short window"

HostReader = Callable[[int], int]

RingObserver = Callable[["Ring"], None]


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
    interpreter, the per-cycle fast-path plan, fused macro kernels and
    time-vectorized native kernels.  On a lane ring each lane's cycles
    are booked on the rung that ran them.  Plan compilation is booked
    separately, so a workload's coverage of each rung (and the compile
    overhead paid for it) is directly measurable.
    """

    #: Engine rungs, slowest first; each has ``<rung>_cycles`` and
    #: ``<rung>_seconds`` fields.
    RUNGS = ("interpreted", "fastpath", "macro", "native")

    interpreted_cycles: int = 0
    interpreted_seconds: float = 0.0
    fastpath_cycles: int = 0
    fastpath_seconds: float = 0.0
    macro_cycles: int = 0
    macro_seconds: float = 0.0
    native_cycles: int = 0
    native_seconds: float = 0.0
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
                + self.native_cycles)

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

    def check_dnode(self, layer: int, position: int) -> None:
        """Raise :class:`ConfigurationError` unless (*layer*, *position*)
        addresses a Dnode."""
        if not 0 <= layer < self.layers:
            raise ConfigurationError(
                f"layer must be 0..{self.layers - 1}, got {layer}"
            )
        if not 0 <= position < self.width:
            raise ConfigurationError(
                f"position must be 0..{self.width - 1}, got {position}"
            )

    def check_switch(self, index: int) -> None:
        """Raise :class:`ConfigurationError` unless *index* addresses a
        switch."""
        if not 0 <= index < self.layers:
            raise ConfigurationError(
                f"switch index must be 0..{self.layers - 1}, got {index}"
            )

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
        "native": "compiled ladder: time-vectorized NumPy kernels "
                  "(optional Numba jit), fused macro kernels, "
                  "per-cycle plans",
        "batch": "batch_size independent lanes, each run on the "
                 "compiled ladder",
    }

    #: Valid values of the ``backend`` selector.
    BACKENDS = tuple(BACKEND_REGISTRY)

    @classmethod
    def _check_backend(cls, backend: str, batch_size: int) -> None:
        if backend not in cls.BACKEND_REGISTRY:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of "
                f"{cls.BACKENDS}"
            )
        if batch_size < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {batch_size}"
            )
        if batch_size > 1 and backend != "batch":
            raise ConfigurationError(
                f"batch_size {batch_size} requires backend='batch', "
                f"got {backend!r}"
            )

    def __init__(self, geometry: RingGeometry,
                 strict_fifos: bool = False,
                 backend: str = "native",
                 batch_size: int = 1,
                 plan_cache: int = DEFAULT_CAPACITY):
        self.geometry = geometry
        self.strict_fifos = strict_fifos
        self._check_backend(backend, batch_size)
        self.backend = backend
        self.batch_size = batch_size
        #: Configuration-fingerprinted LRU cache of compiled plans, each
        #: carrying its fused kernels.  Capacity 0 disables caching.
        self.plan_cache = PlanCache(plan_cache)
        #: Cycles executed by fused macro kernels (coverage metric).
        self.macro_cycles = 0
        # Active macro kernel for the current configuration + entry phase
        # (None = not compiled, an Ineligible verdict = cannot fuse).
        self._macro = None
        #: Native-tier lifetime counters: cycles executed by
        #: time-vectorized kernels, plans compiled, and cycles of compiled
        #: spans the native rung handed down the ladder (ineligible
        #: configuration, sub-period remainders, unsafe FIFO windows).
        #: Host-side accounting like ``macro_cycles`` — preserved across
        #: :meth:`reset` and snapshot restore.
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
        # True while the active plan was re-adopted through a plan-cache
        # hit or re-armed by adopt_cached_plan() (a recurring
        # configuration), False on a first visit.
        self._revisit = False
        # True once the current configuration has been looked up in the
        # plan cache, so one visit counts one lookup.
        self._looked_up = False
        # Configuration-derived values, dropped on every mutation.
        self._fingerprint: Optional[tuple] = None
        self._host_channels: Optional[Tuple[int, ...]] = None
        self._local_sequencers: Optional[tuple] = None
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
        for layer_dnodes in self._dnodes:
            for dn in layer_dnodes:
                dn.on_config_change = self._invalidate_fastpath
        for sw in self._switches:
            sw.config.on_change = self._invalidate_fastpath
        #: Lanes 1..B-1 of a ``backend="batch"`` ring (None otherwise);
        #: the ring's own datapath is lane 0.
        self.lanes: Optional[LaneStore] = (
            LaneStore(self, batch_size) if backend == "batch" else None)

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------

    def set_backend(self, backend: str,
                    batch_size: Optional[int] = None) -> None:
        """Switch execution engine (any :attr:`BACKEND_REGISTRY` key).

        Safe at any point between cycles: the ring's datapath always
        reflects the last committed cycle (of lane 0, on a lane ring),
        so the new engine picks up exactly where the old one stopped.
        Entering batch mode, or changing the lane count, broadcasts that
        state across *batch_size* lanes; leaving it keeps lane 0.
        """
        if batch_size is None:
            batch_size = self.batch_size if backend == "batch" else 1
        self._check_backend(backend, batch_size)
        if backend != "batch":
            self.lanes = None
        elif self.lanes is None or self.lanes.size != batch_size:
            self.lanes = LaneStore(self, batch_size)
        self.backend = backend
        self.batch_size = batch_size
        self._plan = None
        self._macro = None
        self._native = None
        self._looked_up = False
        self._config_dirty = True

    def set_plan_cache(self, capacity: int) -> None:
        """Resize (or with 0, disable) the compiled-plan cache.

        Replaces the cache, so existing entries and lifetime counters are
        dropped; the active plan (if any) is unaffected.
        """
        self.plan_cache = PlanCache(capacity)

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    def dnode(self, layer: int, position: int) -> Dnode:
        """The Dnode at (*layer*, *position*)."""
        self.geometry.check_dnode(layer, position)
        return self._dnodes[layer][position]

    def switch(self, index: int) -> Switch:
        """The switch feeding layer *index* (fed by the previous layer)."""
        self.geometry.check_switch(index)
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
        """Append one or more raw words to a Dnode input FIFO.

        On a lane ring the words reach every lane (lane-specific loads
        go through :meth:`LaneStore.push_fifo
        <repro.core.lanes.LaneStore.push_fifo>`).
        """
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
        if self.lanes is not None:
            self.lanes.extend_fifo(key, values)

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
    def profile(self):
        """Context manager timing the engines while the block runs.

        Yields a :class:`RingProfile` that accumulates wall-clock seconds
        and cycle counts separately for the interpreter, the compiled fast
        path, and plan compilation.  Profiling adds one predicate per
        dispatch decision — nothing on the per-cycle fast path itself.
        """
        if self._profile is not None:
            raise SimulationError("ring is already being profiled")
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
        """Execute *cycles* clocks on the engines, firing no observer;
        a lane ring runs the span once per lane."""
        if self.lanes is None:
            self._advance_lane(cycles, bus, host_in)
        else:
            self.lanes.run(self._advance_lane, cycles, bus, host_in)

    def _advance_lane(self, cycles: int, bus: int, host_in) -> None:
        """Execute *cycles* clocks of the ring's own datapath.

        The span is interpreted cycle by cycle until a compiled plan is
        adopted (from the plan cache) or compiled (after one stable
        cycle); the rest runs on the compiled ladder — a single cycle on
        the per-cycle plan, longer spans through :meth:`_run_steady`.
        *host_in* is a per-cycle reader or a :class:`HostWindow`, whose
        tap samples the interpreter records after each commit.
        """
        recorders = (host_in.recorders() if type(host_in) is HostWindow
                     else ())
        compiled = self.backend != "interpreter"
        while cycles > 0:
            plan = self._plan
            if plan is None and compiled:
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
            if compiled:
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
        self._local_sequencers = None
        self.config.resident = None
        self._looked_up = False
        self._config_dirty = True

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
        """Plan-cache lookup for the current configuration, once per
        visit (a configuration mutation starts a new visit).

        On a hit the cached plan is adopted immediately — including on
        the first cycle after a reconfiguration — and, the configuration
        being recurring, the first-visit deferral of macro/native codegen
        is lifted.  On a miss, a fingerprint that has missed before is
        evidently part of a multiplexing working set and is compiled
        eagerly; a first-time fingerprint keeps the deferred
        compile-after-one-stable-cycle policy (so a never-repeating
        per-cycle reconfiguration stream compiles nothing).
        """
        cache = self.plan_cache
        if not cache.capacity or self._looked_up:
            return None
        self._looked_up = True
        key = self.config_fingerprint()
        plan = cache.get(key)
        self._revisit = plan is not None
        if plan is None and cache.note_miss(key):
            plan = self._compile_plan_timed()
            cache.put(key, plan)
        if plan is not None:
            self._plan = plan
            self._config_dirty = False
        return plan

    def adopt_cached_plan(self) -> bool:
        """Re-adopt a compiled plan for the current configuration now.

        Public hook for restore paths (checkpoint rollback, farm worker
        job switches): after the configuration settles, one fingerprint
        lookup re-activates a cached plan immediately instead of waiting
        for the first ``step()`` to do it lazily.  Returns ``True`` when
        a compiled plan is active afterwards.  A plan that is still
        active counts as a revisit of its configuration — the caller is
        starting another run on it — which lifts the first-visit codegen
        deferral.  The interpreter never adopts plans, so this is a
        no-op there.
        """
        if self.backend == "interpreter":
            return False
        if self._plan is not None:
            self._revisit = True
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
        elif self._plan is None:
            plan = self._compile_plan_timed()
            self._plan = plan
            self._revisit = False
            cache = self.plan_cache
            if cache.capacity:
                cache.put(self.config_fingerprint(), plan)

    def _ensure_fused(self, plan, tier: str, codegen: bool):
        """The *tier* (``"macro"``/``"native"``) kernel for the current
        configuration + entry phase, or None when the rung is refused.

        Kernels are stored on the configuration's *plan*, keyed by tier
        and entry phase, so re-entering a known phase of a known
        configuration skips codegen entirely, and evicting the plan from
        :attr:`plan_cache` drops its kernels.  A failed compile is stored
        the same way, as an :class:`~repro.core.plancache.Ineligible`
        verdict naming the reason, so plane switching never re-runs a
        doomed compile.  With *codegen* False (a short first-visit span)
        an unknown phase refuses the rung without compiling.
        """
        attr = "_" + tier
        kernel = getattr(self, attr)
        if kernel is not None and (type(kernel) is Ineligible
                                   or kernel.matches_phase()):
            return self._verdict(kernel)
        sequencers = self._local_sequencers
        if sequencers is None:
            sequencers = self._local_sequencers = tuple(
                dn.local for layer in self._dnodes for dn in layer
                if dn._mode is DnodeMode.LOCAL)
        key = (tier, tuple(local._counter for local in sequencers))
        kernel = plan.kernels.get(key)
        if kernel is None:
            if not codegen:
                self._note_fallback(DEFERRED_CODEGEN)
                return None
            if tier == "native":
                kernel = try_native(self)
                if type(kernel) is not Ineligible:
                    self.native_compiles += 1
            else:
                kernel = (compile_macro(self) or
                          Ineligible("macro", "period too long to unroll"))
            plan.kernels[key] = kernel
        setattr(self, attr, kernel)
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
        """Run *cycles* on the compiled ladder: native, macro, per-cycle.

        The longest FIFO-safe period-multiple prefix executes through the
        time-vectorized native kernel; whatever it cannot take
        (ineligible configuration, sub-period remainder, unsafe FIFO
        window) falls down the ladder: the fused macro kernel takes the
        whole periods of a remainder of at least two cycles, the
        per-cycle plan the rest.

        On a configuration's first visit a span generates no new fused
        kernel unless it covers :data:`FIRST_VISIT_CODEGEN_CYCLES`; once
        the configuration comes back through the plan cache, codegen
        proceeds.
        """
        codegen = self._revisit or cycles >= FIRST_VISIT_CODEGEN_CYCLES
        native = self._ensure_fused(plan, "native", codegen)
        safe = native.safe_cycles(cycles) if native is not None else 0
        if safe:
            self._run_rung(native, "native", safe, bus, host_in)
            cycles -= safe
        if cycles:
            self.native_fallback_cycles += cycles
        if cycles >= 2:
            macro = self._ensure_fused(plan, "macro", codegen)
            if macro is not None and cycles >= macro.period:
                fused = cycles - cycles % macro.period
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
            channels = self._host_channels = host_channels(
                self.config_fingerprint()[1])
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
          ``last_bus``, and every lane's datapath.
        * **Preserved** — everything that describes the *machine and its
          host*: the configuration and its write counters
          (``config.writes``, per-switch ``config.writes``),
          ``plan_compiles`` / ``plan_invalidations`` / ``macro_cycles``
          / ``native_cycles`` / ``native_compiles`` /
          ``native_fallback_cycles`` / ``engine_fallbacks``,
          the plan cache (contents *and* hit/miss/eviction statistics),
          the robustness counters (``faults_injected``, ``checkpoints``,
          ``rollbacks``, ``recovery_cycles``) — and the active compiled
          plan: it closes over the stable state containers just cleared
          in place and the configuration is untouched, so the next step
          resumes without recompiling.
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
        if self.lanes is not None:
            self.lanes.broadcast()

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
