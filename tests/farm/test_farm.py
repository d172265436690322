"""RingFarm serving: jobs, executors, workers, routing, backpressure.

Directed tests for the serving front door (:mod:`repro.farm`): job
validation and the wire codecs, the persistent-ring
:class:`~repro.farm.worker.JobExecutor` (warm caches, pause/resume,
strict-FIFO aborts), the process-backed :class:`FarmWorker` (spawn,
respawn after a kill, inline fallback), and the asyncio
:class:`RingFarm` itself — fingerprint-affinity routing, tenant quotas,
bounded-queue rejection with retry-after, drain/close lifecycle, live
migration, and the ``farm_*`` metric families (including hostile tenant
names surviving the Prometheus exporter).

The property-based bit-identity net is in ``test_differential.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.config_memory import ConfigPlane
from repro.core.isa import Dest, Flag, MicroWord, Opcode, Source
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.errors import ConfigurationError, SimulationError
from repro.farm import (
    FarmJob,
    FarmRejected,
    FarmWorker,
    JobExecutor,
    RingFarm,
)
from repro.farm.job import job_from_wire, job_to_wire, result_to_wire
from repro.host.system import RingSystem
from repro.kernels.fir import build_spatial_fir

SIGNAL = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]


def fir_job(tenant: str = "alice", coeffs=(1, 2, 3, 4),
            cycles: int = 24) -> FarmJob:
    """A FarmJob wrapping the spatial FIR mapping of *coeffs*."""
    system = build_spatial_fir(list(coeffs))
    ring = system.ring
    return FarmJob(
        tenant=tenant,
        layers=ring.geometry.layers,
        width=ring.geometry.width,
        plane=ring.config.capture_plane(),
        cycles=cycles,
        streams={0: [v & 0xFFFF for v in SIGNAL]},
        taps=[(len(coeffs) - 1, 1, None)],
    )


def empty_plane_job(tenant: str = "bob") -> FarmJob:
    """A job on fir_job()'s fabric whose plane configures nothing."""
    job = fir_job(tenant=tenant)
    job.plane = ConfigPlane()
    return job


def strict_underflow_job(cycles: int = 6, preload: int = 2) -> FarmJob:
    """A strict-FIFO job guaranteed to run its FIFO dry mid-budget."""
    ring = Ring(RingGeometry(layers=2, width=2))
    ring.config.write_microword(0, 0, MicroWord(
        Opcode.MOV, Source.FIFO1, dst=Dest.OUT, flags=Flag.POP_FIFO1))
    return FarmJob(
        tenant="carol", layers=2, width=2,
        plane=ring.config.capture_plane(), cycles=cycles,
        taps=[(0, 0, None)],
        fifos=[(0, 0, 1, list(range(1, preload + 1)))],
        strict_fifos=True,
    )


def direct_run(job: FarmJob):
    """Run *job* the plain way on a fresh ring; ``(taps, digest)``."""
    ring = Ring(RingGeometry(layers=job.layers, width=job.width),
                strict_fifos=job.strict_fifos)
    system = RingSystem(ring)
    for layer, pos, limit in job.taps:
        system.data.add_tap(layer, pos, limit=limit)
    ring.config.apply_plane(job.plane)
    for channel, values in sorted(job.streams.items()):
        system.data.stream(channel, values)
    for layer, pos, channel, words in job.fifos:
        ring.push_fifo(layer, pos, channel, words)
    system.run(job.cycles)
    return ([list(tap.samples) for tap in system.data.taps],
            state_digest(ring))


class _Gate:
    """Blocks every worker's execute() until released (deterministic
    queue-occupancy tests: no sleeps, no races)."""

    def __init__(self, farm: RingFarm):
        self.release = threading.Event()
        self.entered = threading.Event()
        for worker in farm.workers:
            original = worker.execute

            def slow(job, pause_at=None, resume=None, _orig=original):
                self.entered.set()
                self.release.wait(10)
                return _orig(job, pause_at=pause_at, resume=resume)

            worker.execute = slow


class TestFarmJob:
    def test_validate_rejects_bad_fields(self):
        good = fir_job()
        for mutation in (("tenant", ""), ("layers", 1), ("width", 0),
                         ("cycles", -1), ("plane", {"not": "a plane"})):
            job = fir_job()
            setattr(job, *mutation)
            with pytest.raises(ConfigurationError):
                job.validate()
        good.validate()  # the baseline itself is fine

    def test_wire_round_trip_through_json(self):
        job = fir_job(coeffs=(2, -3, 5))
        job.job_id = "j-17"
        job.fifos = [(1, 0, 2, [7, 8])]
        job.strict_fifos = True
        wire = json.loads(json.dumps(job_to_wire(job)))
        back = job_from_wire(wire)
        assert back.tenant == job.tenant
        assert (back.layers, back.width) == (job.layers, job.width)
        assert back.plane == job.plane
        assert back.streams == job.streams
        assert back.taps == [tuple(t) for t in job.taps]
        assert back.fifos == [tuple(f[:3]) + (list(f[3]),)
                              for f in job.fifos]
        assert back.strict_fifos and back.job_id == "j-17"

    def test_wire_decode_cache_keeps_type_checks(self):
        wire = job_to_wire(fir_job())
        job_from_wire(json.loads(json.dumps(wire)))  # caches int words
        for field, index in (("microwords", 2), ("routes", 3)):
            bad = json.loads(json.dumps(wire))
            entry = bad["plane"][field][0]
            entry[index] = float(entry[index])
            with pytest.raises(ConfigurationError):
                job_from_wire(bad)

    def test_result_wire_is_json_safe(self):
        out = JobExecutor().execute(fir_job())
        wire = result_to_wire(out["result"])
        json.dumps(wire)  # must not raise
        assert len(wire["digest"]) == 64
        assert wire["aborted"] is None and wire["warm"] is False


class TestJobExecutor:
    def test_matches_direct_run(self):
        job = fir_job()
        want_taps, want_digest = direct_run(job)
        out = JobExecutor().execute(job)
        result = out["result"]
        assert out["done"]
        assert result.taps == want_taps
        assert result.digest == want_digest
        assert result.cycles_run == job.cycles

    def test_second_job_same_config_is_warm(self):
        executor = JobExecutor()
        cold = executor.execute(fir_job())["result"]
        warm = executor.execute(fir_job())["result"]
        assert not cold.warm and cold.plan_compiles >= 1
        assert warm.warm
        # The plane is already resident, so the warm job needs neither a
        # compile nor even a cache lookup — the adopted plan never left.
        assert warm.plan_hits == 0 and warm.plan_compiles == 0
        assert len(executor._rings) == 1, "one persistent ring per shape"
        assert warm.taps == cold.taps and warm.digest == cold.digest

    def test_first_visit_counts_one_miss_and_defers_codegen(self):
        """A cold job looks its plane up once (one miss) and, its
        24-cycle window being short, generates no fused kernel; the
        same plane's next job is a revisit and generates one."""
        executor = JobExecutor()
        first = executor.execute(fir_job())["result"]
        ring = next(iter(executor._rings.values()))
        assert ring.plan_cache.misses == 1
        assert first.plan_compiles == 1
        assert ring._plan.kernels == {}, "first visit compiled a kernel"
        second = executor.execute(fir_job())["result"]
        assert second.warm and second.taps == first.taps
        assert ring.plan_cache.misses == 1
        assert ring.native_compiles == 1, "the revisit compiled no kernel"
        assert ring.native_cycles == 24

    def test_context_switch_a_b_a_stays_bit_identical(self):
        # Resident-plane regression net: alternating planes must force a
        # real reconfiguration each switch, and coming back to plane A
        # must serve from the plan cache (hit, not compile) while staying
        # bit-identical to a fresh direct run.
        job_a = fir_job(coeffs=(1, 2, 3, 4))
        job_b = fir_job(coeffs=(4, -3, 2, -1))
        want_a, digest_a = direct_run(job_a)
        want_b, digest_b = direct_run(job_b)
        executor = JobExecutor()
        first = executor.execute(job_a)["result"]
        other = executor.execute(job_b)["result"]
        again = executor.execute(job_a)["result"]
        assert (first.taps, first.digest) == (want_a, digest_a)
        assert (other.taps, other.digest) == (want_b, digest_b)
        assert (again.taps, again.digest) == (want_a, digest_a)
        assert not first.warm and not other.warm
        assert again.warm
        assert again.plan_compiles == 0 and again.plan_hits >= 1

    def test_empty_plane_does_not_inherit_previous_tenant(self):
        executor = JobExecutor()
        fir = executor.execute(fir_job())["result"]
        assert any(fir.taps[0])
        empty = empty_plane_job()
        want_taps, want_digest = direct_run(empty)
        result = executor.execute(empty)["result"]
        assert result.taps == want_taps
        assert not any(result.taps[0]), "read the previous tenant's FIR"
        assert result.digest == want_digest

    def test_pause_resume_across_executors_bit_identical(self):
        job = fir_job(cycles=20)
        want_taps, want_digest = direct_run(job)
        first, second = JobExecutor(worker=0), JobExecutor(worker=1)
        paused = first.execute(job, pause_at=9)
        assert not paused["done"]
        out = second.execute(job, resume=paused["state"])
        result = out["result"]
        assert result.migrated and result.worker == 1
        assert result.taps == want_taps
        assert result.digest == want_digest

    def test_want_digest_false_skips_digest_only(self):
        job = fir_job()
        job.want_digest = False
        want_taps, _ = direct_run(fir_job())
        result = JobExecutor().execute(job)["result"]
        assert result.digest == ()
        assert result.taps == want_taps, "taps unaffected by the opt-out"
        wire = json.loads(json.dumps(job_to_wire(job)))
        assert job_from_wire(wire).want_digest is False

    def test_strict_fifo_abort_is_reported_not_raised(self):
        result = JobExecutor().execute(strict_underflow_job())["result"]
        assert result.aborted is not None
        assert "FIFO1" in result.aborted and "cycle" in result.aborted


class TestFarmWorker:
    def test_inline_lifecycle(self):
        worker = FarmWorker(0, use_processes=False)
        assert not worker.using_process
        assert worker.ping()
        out = worker.execute(fir_job())
        assert out["done"] and worker.jobs_done == 1
        worker.close()
        worker.close()  # idempotent
        assert not worker.ping()
        with pytest.raises(SimulationError, match="closed"):
            worker.execute(fir_job())

    def test_process_worker_runs_and_respawns_after_kill(self):
        worker = FarmWorker(0, use_processes=True)
        try:
            if not worker.using_process:  # pragma: no cover - fallback
                pytest.skip("no worker processes on this platform")
            assert worker.ping()
            first = worker.execute(fir_job())["result"]
            assert first.worker == 0
            worker._proc.kill()
            worker._proc.join()
            # Next job respawns the process (cold caches, slot kept).
            second = worker.execute(fir_job())["result"]
            assert worker.restarts == 1
            assert not second.warm
            assert second.digest == first.digest
        finally:
            worker.close()

    def test_process_worker_propagates_job_errors(self):
        worker = FarmWorker(0, use_processes=True)
        try:
            if not worker.using_process:  # pragma: no cover - fallback
                pytest.skip("no worker processes on this platform")
            bad = fir_job()
            bad.tenant = ""
            with pytest.raises(SimulationError,
                               match="ConfigurationError"):
                worker.execute(bad)
            # The worker survives a rejected job.
            assert worker.ping()
        finally:
            worker.close()


def inline_farm(**kwargs) -> RingFarm:
    kwargs.setdefault("use_processes", False)
    return RingFarm(**kwargs)


class TestRingFarm:
    def test_constructor_validation(self):
        for kwargs in ({"workers": 0}, {"queue_depth": 0},
                       {"tenant_quota": 0}, {"routing": "rr"}):
            with pytest.raises(ConfigurationError):
                inline_farm(**kwargs)

    def test_submit_matches_direct_run(self):
        job = fir_job()
        want_taps, want_digest = direct_run(job)

        async def go():
            async with inline_farm(workers=2) as farm:
                result = await farm.submit(job)
                return farm.jobs_submitted, farm.jobs_completed, result

        submitted, completed, result = asyncio.run(go())
        assert (submitted, completed) == (1, 1)
        assert result.taps == want_taps
        assert result.digest == want_digest
        assert not result.migrated

    def test_affinity_routing_pins_and_warms(self):
        async def go():
            async with inline_farm(workers=2) as farm:
                results = [await farm.submit(fir_job())
                           for _ in range(3)]
                return farm, results

        farm, results = asyncio.run(go())
        assert len({r.worker for r in results}) == 1, "pinned worker"
        assert not results[0].warm
        assert all(r.warm for r in results[1:])
        assert farm.plan_compiles == 1
        assert farm.warm_jobs == 2

    def test_fingerprint_is_the_planes_own(self):
        farm = inline_farm()
        fresh = Ring(RingGeometry(layers=4, width=2))
        farm.fingerprint_of(fir_job())
        key, fingerprint = farm.fingerprint_of(empty_plane_job())
        assert key == (4, 2)
        assert fingerprint == fresh.config_fingerprint()
        job = fir_job()
        fresh.config.apply_plane(job.plane)
        assert farm.fingerprint_of(job)[1] == fresh.config_fingerprint()
        for worker in farm.workers:
            worker.close()

    def test_random_routing_still_bit_identical(self):
        job = fir_job()
        _, want_digest = direct_run(job)

        async def go():
            async with inline_farm(workers=2, routing="random") as farm:
                return [await farm.submit(fir_job()) for _ in range(4)]

        results = asyncio.run(go())
        assert all(r.digest == want_digest for r in results)

    def test_tenant_quota_rejects_excess_inflight(self):
        async def go():
            async with inline_farm(workers=1, tenant_quota=1) as farm:
                gate = _Gate(farm)
                first = asyncio.get_running_loop().create_task(
                    farm.submit(fir_job()))
                await asyncio.to_thread(gate.entered.wait, 10)
                with pytest.raises(FarmRejected) as err:
                    await farm.submit(fir_job())
                gate.release.set()
                await first
                return farm.jobs_rejected, err.value

        rejected, exc = asyncio.run(go())
        assert rejected == 1
        assert "over quota" in exc.reason
        assert exc.retry_after > 0

    def test_full_queue_rejects_with_retry_after(self):
        async def go():
            async with inline_farm(workers=1, queue_depth=1) as farm:
                gate = _Gate(farm)
                loop = asyncio.get_running_loop()
                running = loop.create_task(farm.submit(fir_job()))
                await asyncio.to_thread(gate.entered.wait, 10)
                queued = loop.create_task(farm.submit(fir_job()))
                await asyncio.sleep(0)  # let the second submit enqueue
                with pytest.raises(FarmRejected) as err:
                    await farm.submit(fir_job())
                gate.release.set()
                await asyncio.gather(running, queued)
                return farm, err.value

        farm, exc = asyncio.run(go())
        assert "queue full" in exc.reason
        assert exc.retry_after > 0
        assert farm.jobs_rejected == 1
        assert farm.jobs_completed == 2

    def test_drain_rejects_then_close_refuses_submit(self):
        async def go():
            farm = inline_farm(workers=1)
            async with farm:
                await farm.submit(fir_job())
                await farm.drain()
                with pytest.raises(FarmRejected, match="draining"):
                    await farm.submit(fir_job())
            await farm.close()  # idempotent
            with pytest.raises(SimulationError, match="closed"):
                await farm.submit(fir_job())
            return farm

        farm = asyncio.run(go())
        assert farm.jobs_completed == 1 and farm.jobs_rejected == 1

    def test_live_migration_is_bit_identical(self):
        job = fir_job(cycles=20)
        want_taps, want_digest = direct_run(job)

        async def go():
            async with inline_farm(workers=2) as farm:
                result = await farm.submit(job, migrate_at=10)
                return farm.jobs_migrated, result

        migrated, result = asyncio.run(go())
        assert migrated == 1 and result.migrated
        assert result.taps == want_taps
        assert result.digest == want_digest

    def test_aborted_jobs_counted_not_raised(self):
        async def go():
            async with inline_farm(workers=1) as farm:
                result = await farm.submit(strict_underflow_job())
                return farm.jobs_aborted, result

        aborted, result = asyncio.run(go())
        assert aborted == 1
        assert "FIFO1" in result.aborted

    def test_metrics_families_and_hostile_tenant_labels(self):
        hostile = 'bob "x\n'

        async def go():
            async with inline_farm(workers=2) as farm:
                await farm.submit(fir_job())
                await farm.submit(fir_job(tenant=hostile))
                return farm

        farm = asyncio.run(go())
        snap = farm.metrics()
        assert snap.value("farm_workers") == 2
        assert snap.value("farm_jobs_submitted_total") == 2
        assert snap.value("farm_jobs_completed_total") == 2
        assert snap.value("farm_jobs_rejected_total") == 0
        assert snap.value("farm_queue_depth", worker="0") == 0
        assert snap.value("farm_tenant_jobs_total", tenant="alice") == 1
        assert snap.value("farm_tenant_cycles_total", tenant=hostile) == 24
        total = sum(snap.value("farm_worker_jobs_total", worker=str(i))
                    for i in range(2))
        assert total == 2
        text = snap.to_prometheus()
        # The hostile tenant name must come out escaped, one line.
        assert 'tenant="bob \\"x\\n"' in text
        assert not any(line.startswith('"')
                       for line in text.splitlines())

    def test_metrics_before_start_report_empty_queues(self):
        farm = inline_farm(workers=2)
        snap = farm.metrics()
        assert snap.value("farm_queue_depth", worker="1") == 0
        assert snap.value("farm_plan_warm_ratio") == 0.0
        for worker in farm.workers:
            worker.close()


class TestSubmitGraph:
    def test_graph_submission_matches_golden(self):
        from repro.compiler.library import build_graph, library_streams

        graph = build_graph("dct4")
        streams = library_streams(graph, 10)
        golden = graph.evaluate(streams)

        async def go():
            async with inline_farm(workers=1) as farm:
                return await farm.submit_graph("t0", graph, streams)

        result, outputs = asyncio.run(go())
        assert outputs == golden
        assert result.cycles_run == 10 + 4  # length + dct4 latency
