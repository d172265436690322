"""Ring.reset() counter semantics — the documented cleared/preserved
split (see the ``reset()`` docstring in :mod:`repro.core.ring`).

``reset()`` models a hardware datapath reset: *run* state is cleared,
*machine and host* state survives.  This file is the regression net —
every counter the ring owns is asserted to land on the right side, so a
future backend cannot silently change the contract.
"""

from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import capture, restore

from tests.robustness.conftest import make_busy_ring


def run_hard(ring, cycles=12):
    """Drive the ring with enough variety to move every counter."""
    for _ in range(cycles):
        ring.step(bus=5, host_in=lambda ch: 1)
    return ring


class TestCleared:
    def test_run_state_clears(self):
        # 100 cycles drains the 40-word FIFO backlog, so the local MAC
        # loop underflows and every run-state counter moves.
        ring = run_hard(make_busy_ring(), cycles=100)
        assert ring.cycles and ring.fifo_high_water and ring.last_bus
        assert ring.fifo_underflows > 0
        ring.reset()
        assert ring.cycles == 0
        assert ring.fifo_underflows == 0
        assert ring.fifo_high_water == {}
        assert ring.last_bus == 0

    def test_dnode_stats_and_counters_clear(self):
        ring = run_hard(make_busy_ring())
        ring.reset()
        for dn in ring.all_dnodes():
            assert dn.stats.cycles == 0
            assert dn.stats.instructions == 0
            assert dn.stats.arithmetic_ops == 0
            assert dn.stats.multiplies == 0
            assert dn.stats.fifo_pops == 0
            assert dn.local.counter == 0
            assert dn.out == 0
            assert dn.regs.snapshot() == [0, 0, 0, 0]

    def test_fifo_queues_clear_in_place(self):
        ring = make_busy_ring()
        handle = ring.fifo(1, 0, 1)  # a producer-held handle
        ring.reset()
        assert len(handle) == 0
        ring.push_fifo(1, 0, 1, [9])
        assert list(handle) == [9]  # same live deque, still wired

    def test_batch_lane_state_clears_in_place(self):
        ring = run_hard(make_busy_ring(backend="batch", batch_size=4))
        engine = ring._batch_engine
        assert engine is not None
        ring.reset()
        # Same engine, every lane back to what a fresh engine over the
        # cleared scalar state holds.
        assert ring._batch_engine is engine
        twin = make_busy_ring(backend="batch", batch_size=4)
        twin.reset()
        assert engine.capture_lanes() == twin.batch.capture_lanes()


class TestPreserved:
    def test_batch_reset_keeps_lane_kernels(self):
        ring = run_hard(make_busy_ring(backend="batch", batch_size=4))
        compiles = ring.plan_compiles
        ring.reset()
        run_hard(ring)
        assert ring.plan_compiles == compiles
        fresh = make_busy_ring(backend="batch", batch_size=4)
        fresh.reset()
        run_hard(fresh)
        assert ring.batch.capture_lanes() == fresh.batch.capture_lanes()

    def test_configuration_and_write_counters(self):
        ring = make_busy_ring()
        writes = ring.config.writes
        assert writes > 0
        fingerprint = ring.config_fingerprint()
        run_hard(ring)
        ring.reset()
        assert ring.config.writes == writes
        assert ring.config_fingerprint() == fingerprint

    def test_engine_lifetime_counters(self):
        ring = run_hard(make_busy_ring(backend="fastpath"))
        compiles = ring.plan_compiles
        assert compiles > 0
        ring.config.write_local_limit(1, 0, 2)  # force an invalidation
        invalidations = ring.plan_invalidations
        ring.reset()
        assert ring.plan_compiles == compiles
        assert ring.plan_invalidations == invalidations

    def test_macro_cycles_counter(self):
        # Fused macro execution only engages on the batch entry point.
        ring = make_busy_ring(backend="fastpath", macro_step=2)
        ring.run(20)
        assert ring.macro_cycles > 0
        macro = ring.macro_cycles
        ring.reset()
        assert ring.macro_cycles == macro

    def test_plan_cache_contents_and_stats(self):
        ring = run_hard(make_busy_ring(backend="fastpath"))
        cached = len(ring.plan_cache)
        assert cached > 0
        hits, misses = ring.plan_cache.hits, ring.plan_cache.misses
        ring.reset()
        assert len(ring.plan_cache) == cached
        assert (ring.plan_cache.hits, ring.plan_cache.misses) == \
            (hits, misses)

    def test_active_plan_survives_without_recompile(self):
        ring = run_hard(make_busy_ring(backend="fastpath"))
        assert ring._plan is not None
        plan = ring._plan
        compiles = ring.plan_compiles
        ring.reset()
        assert ring._plan is plan  # same closure over cleared containers
        run_hard(ring)
        assert ring.plan_compiles == compiles  # resumed, not recompiled

    def test_robustness_counters(self):
        ring = run_hard(make_busy_ring())
        ring.faults_injected = 3
        ring.checkpoints = 2
        ring.rollbacks = 1
        ring.recovery_cycles = 8
        ring.reset()
        assert (ring.faults_injected, ring.checkpoints, ring.rollbacks,
                ring.recovery_cycles) == (3, 2, 1, 8)

    def test_rollback_still_counts_across_restore(self):
        """restore() resets internally; a rollback must still register
        on the post-restore ring — restoring must not rewrite history."""
        ring = run_hard(make_busy_ring())
        snapshot = capture(ring)
        ring.rollbacks = 5
        restore(ring, snapshot)
        assert ring.rollbacks == 5


def test_reset_is_idempotent():
    ring = run_hard(make_busy_ring())
    ring.reset()
    first = capture(ring)
    ring.reset()
    from repro.core.snapshot import snapshot_digest
    assert snapshot_digest(capture(ring)) == snapshot_digest(first)
