"""Rung-pinned rings: one conformance column per engine rung.

A ring picks each span's rung itself (native, then macro, then the
per-cycle plan), so no constructor option selects one.  The cross-engine
suites still need a column per rung, so they run each rung's kernel
directly: :class:`PinnedRing` compiles a steady span's kernel with
``compile_macro`` / ``compile_native`` and calls its ``run``, and
whatever that kernel cannot take (an ineligible configuration, a
sub-period remainder, a FIFO-unsafe window) runs on the per-cycle plan.
Unlike the ladder, a pinned ring generates its kernel however short the
span, so :data:`RUNGS` also keeps a ``ladder`` column: the default ring,
the engine users get.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.dnode import DnodeMode
from repro.core.fastpath import compile_plan
from repro.core.lanes import write_lane
from repro.core.macropath import compile_macro
from repro.core.nativepath import compile_native
from repro.core.ring import Ring, RingGeometry

#: Name -> :func:`make_ring` keyword arguments, one entry per rung, plus
#: ``ladder``: a default ring, which picks its rungs itself.
RUNGS = {
    "interpreter": {"backend": "interpreter"},
    "ladder": {},
    "fastpath": {"rung": "fastpath"},
    "macro": {"rung": "macro"},
    "native": {"rung": "native"},
    "batch": {"backend": "batch", "batch_size": 2},
}

_COMPILERS = {"fastpath": compile_plan, "macro": compile_macro,
              "native": compile_native}


class PinnedRing(Ring):
    """A ring whose compiled spans run on one rung's kernel."""

    def __init__(self, geometry: RingGeometry, rung: str, **kwargs):
        if rung not in _COMPILERS:
            raise ValueError(f"cannot pin rung {rung!r}")
        super().__init__(geometry, **kwargs)
        self.rung = rung
        self._kernels = {}

    def _kernel(self):
        """The pinned rung's kernel for the current configuration and
        sequencer phase (None when the configuration is ineligible)."""
        phase = tuple(dn.local.counter for dn in self.all_dnodes()
                      if dn.mode is DnodeMode.LOCAL)
        key = (self.config_fingerprint(), phase)
        if key not in self._kernels:
            self._kernels[key] = _COMPILERS[self.rung](self)
        return self._kernels[key]

    def _run_steady(self, plan, cycles: int, bus: int, host_in) -> None:
        if self.rung != "fastpath":
            kernel = self._kernel()
            if kernel is not None:
                span = (kernel.safe_cycles(cycles) if self.rung == "native"
                        else cycles - cycles % kernel.period)
                if span:
                    self._run_rung(kernel, self.rung, span, bus, host_in)
                    cycles -= span
        if cycles:
            self._run_rung(plan, "fastpath", cycles, bus, host_in)


def lane_ring(ring: Ring, lane: int) -> Ring:
    """A scalar ring (no configuration) holding lane *lane* of a lane
    ring: that lane's datapath plus the clock state the lanes share."""
    target = Ring(ring.geometry)
    write_lane(target, ring.lanes.state(lane))
    target.cycles = ring.cycles
    for dst, src in zip(target.all_dnodes(), ring.all_dnodes()):
        dst.local._counter = src.local.counter
    return target


def make_ring(geometry: RingGeometry, **kwargs) -> Ring:
    """A ring of *geometry*; a ``rung`` keyword pins that rung."""
    rung = kwargs.pop("rung", None)
    if rung is None:
        return Ring(geometry, **kwargs)
    return PinnedRing(geometry, rung, **kwargs)


def rung_cycles_per_second(ring: Ring, rung: str, cycles: int,
                           bus: int = 0, host_in=None,
                           repeats: int = 3) -> float:
    """Best-of-*repeats* cycles/s of *ring*'s current configuration on
    one rung's kernel, compiled and run directly (compile untimed).

    *cycles* is rounded down to whole periods; the native rung runs its
    FIFO-safe prefix.  Raises ``ValueError`` when the rung refuses the
    configuration.
    """
    kernel = _COMPILERS[rung](ring)
    if kernel is None:
        raise ValueError(f"the {rung} rung refuses this configuration")
    if rung == "native":
        cycles = kernel.safe_cycles(cycles)
    elif rung == "macro":
        cycles -= cycles % kernel.period
    best = 0.0
    for _ in range(repeats):
        began = perf_counter()
        kernel.run(cycles, bus, host_in)
        best = max(best, cycles / (perf_counter() - began))
    return best
