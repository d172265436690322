"""Shared engine parametrization for the golden-kernel suites.

Every execution backend the repo ships is described once, here, and the
``engine`` fixture parametrizes any test that requests it over all of
them.  A kernel test written against the fixture therefore becomes one
*row* of the cross-engine x kernel conformance matrix: the same golden
recipe, bit-identical on the interpreter, the compiled fast path, the
native macro-kernel tier, the macro-stepped interpreter and both lane
backends.

Helpers:

* :func:`make_ring` — build a ring of the given geometry under the
  engine's constructor kwargs;
* :func:`tap_samples` — lane-0 samples of a tap regardless of whether it
  is a scalar :class:`~repro.host.streams.OutputTap` or a
  :class:`~repro.host.streams.BatchOutputTap`;
* :func:`fabric_state` — the scalar architectural state of a ring
  (shape-compatible across engines, unlike ``state_digest`` which
  includes the lane arrays of batch snapshots).
"""

from __future__ import annotations

import pytest

from repro.core.ring import Ring, RingGeometry

#: name -> Ring constructor kwargs, one entry per execution engine.
#: ``tests/core/test_nativepath.py`` asserts this stays in sync with
#: :attr:`Ring.BACKEND_REGISTRY`.
ENGINES = {
    "interpreter": {"fastpath": False},
    "fastpath": {},
    "native": {"backend": "native"},
    "macro": {"macro_step": 4},
    "batch": {"backend": "batch", "batch_size": 2},
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    """(name, ring_kwargs) for every execution engine, one per param."""
    return request.param, dict(ENGINES[request.param])


def make_ring(geometry: RingGeometry, engine_kwargs: dict) -> Ring:
    """A fresh ring of *geometry* running the given engine."""
    return Ring(geometry, **engine_kwargs)


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
