"""Checkpoint/restore of complete fabric runtime state.

Long systolic simulations (frame-level motion search, full-image
transforms) benefit from checkpoints: capture *everything* live in the
fabric — register files, output registers, feedback pipelines, FIFO
contents, local-sequencer counters, cycle/statistics counters, FIFO
underflow and high-water accounting, the last bus value — and restore it
later onto a same-geometry ring.  Configuration state is captured via a
:class:`~repro.core.config_memory.ConfigPlane`, so one snapshot fully
determines future behaviour: a restored ring is cycle-for-cycle *and
counter-for-counter* identical to the original (tested on every
execution engine).

Engine interaction contract:

* ``restore()`` ends with an explicit
  :meth:`~repro.core.ring.Ring._invalidate_fastpath` — the active
  compiled plan, macro kernel and native plan are dropped, so no engine
  can keep executing a plan compiled for the pre-restore configuration.
  Plans retained in the fingerprint cache stay valid (they are keyed by
  configuration and close over the ring's stable state containers —
  native plans additionally by entry phase), and restore immediately
  re-adopts the cached plan for the restored fingerprint via
  :meth:`~repro.core.ring.Ring.adopt_cached_plan` — a
  restore-to-known-config pays one cache lookup, zero recompiles and
  zero interpreted warm-up cycles.
* The datapath half of a snapshot is a
  :class:`~repro.core.lanes.LaneState` (:attr:`RingSnapshot.datapath`),
  the record a lane ring keeps per lane.  A snapshot of a lane ring carries lanes 1..B-1 as well
  (:meth:`~repro.core.lanes.LaneStore.capture`); restoring onto a lane
  ring of the same lane count restores every lane.  Restoring it onto a
  scalar ring keeps lane 0, and restoring any other snapshot onto a lane
  ring broadcasts its datapath to every lane.

What a snapshot deliberately does *not* cover: engine-lifetime counters
(``plan_compiles``, ``plan_invalidations``, ``macro_cycles``, the plan
cache and its hit/miss statistics, configuration write counters) and the
robustness counters (``faults_injected`` etc.) — those describe the
simulation host, not the architectural state of the fabric, and restoring
must not rewrite history (a rollback still counts as a rollback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config_memory import ConfigPlane
from repro.core.lanes import LaneState, read_lane, write_lane
from repro.core.ring import Ring
from repro.errors import SimulationError


@dataclass
class RingSnapshot:
    """Frozen runtime + configuration state of a ring."""

    layers: int
    width: int
    pipeline_depth: int
    cycles: int
    configuration: ConfigPlane
    #: The ring's own datapath (lane 0 of a lane ring).
    datapath: LaneState
    local_counters: Dict[Tuple[int, int], int] = field(
        default_factory=dict)
    fifo_high_water: Dict[Tuple[int, int, int], int] = field(
        default_factory=dict)
    last_bus: int = 0
    #: Lanes 1..B-1 of a lane ring (lane 0 is the snapshot's own
    #: datapath); None for a scalar ring.
    lanes: Optional[List[LaneState]] = None


def capture(ring: Ring) -> RingSnapshot:
    """Snapshot *ring*'s complete state (configuration + runtime)."""
    geometry = ring.geometry
    lanes = ring.lanes.capture() if ring.lanes is not None else []
    return RingSnapshot(
        layers=geometry.layers,
        width=geometry.width,
        pipeline_depth=geometry.pipeline_depth,
        cycles=ring.cycles,
        configuration=ring.config.capture_plane(),
        datapath=read_lane(ring),
        local_counters={(dn.layer, dn.position): dn.local.counter
                        for dn in ring.all_dnodes()},
        fifo_high_water=dict(ring.fifo_high_water),
        last_bus=ring.last_bus,
        lanes=lanes or None,
    )


def restore(ring: Ring, snapshot: RingSnapshot) -> None:
    """Load *snapshot* onto *ring* (must share the exact geometry)."""
    geometry = ring.geometry
    if (geometry.layers, geometry.width, geometry.pipeline_depth) != \
            (snapshot.layers, snapshot.width, snapshot.pipeline_depth):
        raise SimulationError(
            f"snapshot is for a {snapshot.layers}x{snapshot.width} ring "
            f"(pipeline depth {snapshot.pipeline_depth}); target is "
            f"{geometry.layers}x{geometry.width}"
        )
    ring.reset()
    ring.config.apply_plane(snapshot.configuration)
    write_lane(ring, snapshot.datapath)
    for (layer, pos), counter in snapshot.local_counters.items():
        ring.dnode(layer, pos).local._counter = counter
    ring.fifo_high_water.clear()
    ring.fifo_high_water.update(snapshot.fifo_high_water)
    ring.last_bus = snapshot.last_bus
    ring.cycles = snapshot.cycles
    others = snapshot.lanes or []
    if ring.lanes is not None:
        if len(others) == ring.lanes.size - 1:
            ring.lanes.restore(others)
        else:
            ring.lanes.broadcast()
    # Contract: a restore is a configuration event.  apply_plane() above
    # already fired the invalidation hooks, but the runtime-state writes
    # happened afterwards — invalidate once more so the active plan and
    # macro kernel are dropped *after* the last mutation.
    ring._invalidate_fastpath()
    # Restore-to-known-config must not pay a recompile or an interpreted
    # warm-up cycle: the restored configuration is final at this point,
    # so re-adopt a cached plan eagerly in one fingerprint lookup.  A
    # miss leaves the lazy step()-time policy in charge, unchanged.
    ring.adopt_cached_plan()


def state_digest(ring: Ring) -> tuple:
    """Canonical, hashable digest of a ring's complete state.

    Equal digests mean bit-identical fabric state: configuration,
    datapath contents, every lane's datapath on a lane ring,
    and the architectural counters a snapshot round-trips (statistics,
    underflows, FIFO high-water marks, the cycle count and last bus
    value).  Engine-lifetime counters are excluded, mirroring the
    snapshot contract, so digests are comparable across execution
    backends and across a rollback.
    """
    return snapshot_digest(capture(ring))


def snapshot_digest(snapshot: RingSnapshot) -> tuple:
    """The :func:`state_digest` of a snapshot without a target ring."""

    def freeze(value):
        if isinstance(value, LaneState):
            return freeze(vars(value))
        if isinstance(value, dict):
            return tuple(sorted(
                (freeze(k), freeze(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(freeze(v) for v in value)
        return value

    plane, datapath = snapshot.configuration, snapshot.datapath
    return (
        snapshot.layers, snapshot.width, snapshot.pipeline_depth,
        snapshot.cycles,
        freeze(plane.microwords), freeze(plane.modes),
        freeze(plane.local_programs), freeze(plane.switch_routes),
        freeze(datapath.registers), freeze(datapath.outs),
        freeze(snapshot.local_counters), freeze(datapath.pipelines),
        freeze(datapath.fifos), freeze(datapath.stats),
        datapath.fifo_underflows, freeze(snapshot.fifo_high_water),
        snapshot.last_bus, freeze(snapshot.lanes),
    )


__all__ = ["RingSnapshot", "capture", "restore", "state_digest",
           "snapshot_digest"]
