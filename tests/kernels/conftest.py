"""Shared engine parametrization for the golden-kernel suites.

Every engine rung the repo ships is described once, in
:data:`tests.rungs.RUNGS`, and the ``engine`` fixture parametrizes any
test that requests it over all of them.  A kernel test written against
the fixture therefore becomes one *row* of the cross-engine x kernel
conformance matrix: the same golden recipe, bit-identical on the
interpreter, the per-cycle plan, the macro kernel, the native kernel,
the lane backend and the default ring, which climbs the compiled ladder
itself.

Helpers:

* :func:`make_ring` — build a ring of the given geometry running the
  engine;
* :func:`tap_samples` — lane-0 samples of a tap regardless of whether it
  is a scalar :class:`~repro.host.streams.OutputTap` or a
  :class:`~repro.host.streams.BatchOutputTap`;
* :func:`fabric_state` — the scalar architectural state of a ring
  (shape-compatible across engines, unlike ``state_digest`` which
  includes the other lanes of a lane ring).
"""

from __future__ import annotations

import pytest

from repro.core.ring import Ring, RingGeometry
from tests import rungs

#: name -> :func:`tests.rungs.make_ring` kwargs, one entry per engine
#: rung plus the default ladder.  ``tests/core/test_nativepath.py``
#: asserts every :attr:`Ring.BACKEND_REGISTRY` backend has a column.
ENGINES = rungs.RUNGS


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    """(name, ring_kwargs) for every execution engine, one per param."""
    return request.param, dict(ENGINES[request.param])


def make_ring(geometry: RingGeometry, engine_kwargs: dict) -> Ring:
    """A fresh ring of *geometry* running the given engine."""
    return rungs.make_ring(geometry, **engine_kwargs)


def tap_samples(tap):
    """Lane-0 sample stream of a scalar or batch output tap."""
    return tap.lane(0) if hasattr(tap, "lane") else list(tap.samples)


def fabric_state(ring: Ring) -> dict:
    """Scalar architectural state, comparable across all engines."""
    g = ring.geometry
    return {
        "cycles": ring.cycles,
        "outs": [dn.out for dn in ring.all_dnodes()],
        "regs": [dn.regs.snapshot() for dn in ring.all_dnodes()],
        "counters": [dn.local.counter for dn in ring.all_dnodes()],
        "pipes": [[ring.switch(k).rp_read(stage, lane)
                   for stage in range(1, g.pipeline_depth + 1)
                   for lane in range(1, g.width + 1)]
                  for k in range(g.layers)],
        "fifos": {key: list(queue)
                  for key, queue in sorted(ring._fifos.items()) if queue},
        "underflows": ring.fifo_underflows,
        "stats": [(dn.stats.cycles, dn.stats.instructions,
                   dn.stats.arithmetic_ops, dn.stats.multiplies,
                   dn.stats.fifo_pops) for dn in ring.all_dnodes()],
    }
