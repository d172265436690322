"""RingFarm: the asyncio multi-tenant serving front door.

The paper's dynamic-reconfiguration story at serving scale: many tenants
time-multiplex a pool of ring-owning workers, and tenants whose jobs
share a configuration fingerprint share *compiled plans*.  The farm's
scheduling primitive is therefore the fingerprint, not the tenant:

* **fingerprint-affinity routing** — the first job with a given
  :meth:`~repro.core.ring.Ring.config_fingerprint` picks the
  least-loaded worker and pins the fingerprint there; every later job
  with the same fabric lands on that worker's warm
  :class:`~repro.core.plancache.PlanCache` (``routing="random"`` is the
  cold baseline the benchmark compares against);
* **bounded queues + backpressure** — each worker has one bounded
  :class:`asyncio.Queue`; a full queue rejects with
  :class:`FarmRejected` carrying a ``retry_after`` estimate (an EMA of
  recent job service times times the queue depth) — the farm never
  buffers unboundedly;
* **per-tenant quotas** — at most ``tenant_quota`` jobs per tenant may
  be queued or running at once, so one tenant cannot occupy every slot;
* **drain and migration** — :meth:`RingFarm.drain` stops intake and
  waits for queues to empty; ``submit(job, migrate_at=cycle)`` pauses
  the job at that cycle via a
  :class:`~repro.robustness.checkpoint.SystemCheckpoint` and resumes it
  on the next worker, bit-identically (the farm differential property).

Workers run as processes by default (``use_processes=False`` keeps them
inline for tests and 1-core hosts); blocking worker I/O is pushed off
the event loop with ``asyncio.to_thread``.
"""

from __future__ import annotations

import asyncio
import random
from time import perf_counter
from typing import Dict, List, Optional

from repro.analysis.metrics import Metric, MetricsSnapshot
from repro.core.ring import Ring, RingGeometry
from repro.errors import ConfigurationError, SimulationError
from repro.farm.job import FarmJob, FarmResult
from repro.farm.worker import FarmWorker

#: Seed for the ``routing="random"`` cold baseline.
DEFAULT_SEED = 2002


class FarmRejected(SimulationError):
    """Backpressure signal: the farm cannot take this job right now.

    ``retry_after`` is the suggested client backoff in seconds, derived
    from the farm's service-time EMA and current queue depth.
    """

    def __init__(self, reason: str, retry_after: float):
        super().__init__(f"{reason} (retry after {retry_after:.3f}s)")
        self.reason = reason
        self.retry_after = retry_after


class RingFarm:
    """A pool of ring-owning workers behind one async submit door."""

    ROUTING = ("affinity", "random")

    def __init__(self, workers: int = 2, queue_depth: int = 16,
                 tenant_quota: int = 8, plan_cache: int = 8,
                 use_processes: bool = True, routing: str = "affinity",
                 seed: int = DEFAULT_SEED):
        if workers < 1:
            raise ConfigurationError(
                f"farm needs >= 1 worker, got {workers}")
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue depth must be >= 1, got {queue_depth}")
        if tenant_quota < 1:
            raise ConfigurationError(
                f"tenant quota must be >= 1, got {tenant_quota}")
        if routing not in self.ROUTING:
            raise ConfigurationError(
                f"unknown routing {routing!r}; expected one of "
                f"{self.ROUTING}")
        self.queue_depth = queue_depth
        self.tenant_quota = tenant_quota
        self.routing = routing
        self.workers: List[FarmWorker] = [
            FarmWorker(i, plan_cache=plan_cache,
                       use_processes=use_processes)
            for i in range(workers)
        ]
        self._random = random.Random(seed)
        self._affinity: Dict[tuple, int] = {}
        self._queues: Optional[List[asyncio.Queue]] = None
        self._dispatchers: List[asyncio.Task] = []
        self._draining = False
        self._closed = False
        #: Serving counters (the ``farm_*`` metric families).
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_rejected = 0
        self.jobs_aborted = 0
        self.jobs_migrated = 0
        self.warm_jobs = 0
        self.plan_hits = 0
        self.plan_compiles = 0
        self.tenant_jobs: Dict[str, int] = {}
        self.tenant_cycles: Dict[str, int] = {}
        self._tenant_active: Dict[str, int] = {}
        # Service-time EMA seeding retry-after estimates; starts at a
        # plausible small-job cost so the first rejection is not zero.
        self._ema_seconds = 0.02

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Create the queues and dispatcher tasks (idempotent)."""
        if self._queues is not None:
            return
        self._queues = [asyncio.Queue(maxsize=self.queue_depth)
                        for _ in self.workers]
        self._dispatchers = [
            asyncio.get_running_loop().create_task(self._dispatch(i))
            for i in range(len(self.workers))
        ]

    async def drain(self) -> None:
        """Stop intake and wait until every queued job has finished."""
        self._draining = True
        if self._queues is not None:
            await asyncio.gather(*(q.join() for q in self._queues))

    async def close(self) -> None:
        """Drain, stop the dispatchers, and shut every worker down."""
        if self._closed:
            return
        await self.drain()
        self._closed = True
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers = []
        for worker in self.workers:
            worker.close()

    async def __aenter__(self) -> "RingFarm":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- routing -------------------------------------------------------

    def fingerprint_of(self, job: FarmJob) -> tuple:
        """The configuration fingerprint *job*'s plane resolves to,
        taken over the blank configuration as the worker applies it."""
        geometry = RingGeometry(layers=job.layers, width=job.width)
        plane = job.plane.over_blank(geometry)
        return ((job.layers, job.width), plane.decode(geometry).fingerprint)

    def _queue_load(self, index: int) -> int:
        return self._queues[index].qsize()

    def _pick_worker(self, fingerprint: tuple) -> int:
        if self.routing == "random":
            return self._random.randrange(len(self.workers))
        index = self._affinity.get(fingerprint)
        if index is None:
            index = min(range(len(self.workers)), key=self._queue_load)
            self._affinity[fingerprint] = index
        return index

    def _retry_after(self, queued: int) -> float:
        return round(self._ema_seconds * (queued + 1), 6)

    # -- submission ----------------------------------------------------

    async def submit(self, job: FarmJob,
                     migrate_at: Optional[int] = None) -> FarmResult:
        """Run *job* on the farm; resolves to its :class:`FarmResult`.

        Raises :class:`FarmRejected` (with ``retry_after``) when the
        target worker's queue is full, the tenant is over quota, or the
        farm is draining — the bounded-buffering contract.  With
        ``migrate_at`` the job pauses at that cycle and resumes on the
        next worker (live migration; used by drain/rebalance paths and
        the differential suite).
        """
        job.validate()
        if self._closed:
            raise SimulationError("farm is closed")
        await self.start()
        if self._draining:
            self.jobs_rejected += 1
            raise FarmRejected("farm is draining",
                               self._retry_after(sum(
                                   q.qsize() for q in self._queues)))
        active = self._tenant_active.get(job.tenant, 0)
        if active >= self.tenant_quota:
            self.jobs_rejected += 1
            raise FarmRejected(
                f"tenant {job.tenant!r} over quota "
                f"({active}/{self.tenant_quota} jobs in flight)",
                self._retry_after(active))
        index = self._pick_worker(self.fingerprint_of(job))
        queue = self._queues[index]
        future = asyncio.get_running_loop().create_future()
        try:
            queue.put_nowait((job, migrate_at, future))
        except asyncio.QueueFull:
            self.jobs_rejected += 1
            raise FarmRejected(
                f"worker {index} queue full "
                f"({queue.qsize()}/{self.queue_depth})",
                self._retry_after(queue.qsize()))
        self.jobs_submitted += 1
        self._tenant_active[job.tenant] = active + 1
        try:
            return await future
        finally:
            self._tenant_active[job.tenant] -= 1

    async def submit_graph(self, tenant: str, graph, streams,
                           job_id: str = ""):
        """Submit a :class:`~repro.compiler.graph.DataflowGraph` directly.

        ``compile_graph`` turns *graph* into its mapping, the farm runs
        it like any compiled-plan job, and the tap streams come back
        latency-aligned per graph output node — comparable 1:1 against
        ``graph.evaluate(streams)``.

        Returns ``(FarmResult, outputs)`` where *outputs* maps graph
        output-node index -> signed samples.
        """
        from repro import word
        from repro.compiler.codegen import compile_graph

        if not isinstance(streams, dict):
            streams = {0: list(streams)}
        length = max((len(v) for v in streams.values()), default=0)
        program = compile_graph(graph)
        builder = Ring(program.geometry, plan_cache=0)
        program.configure(builder)
        plane = builder.config.capture_plane()

        # Farm taps cannot skip pipeline fill, so over-collect by each
        # output's fill depth and slice the fill samples off afterwards.
        tap_nodes = []
        for graph_index, phys_index in program.placement.outputs:
            if any(graph_index == seen for seen, _ in tap_nodes):
                continue
            tap_nodes.append((graph_index,
                              program.placement.phys[phys_index]))
        job = FarmJob(
            tenant=tenant,
            layers=program.geometry.layers,
            width=program.geometry.width,
            plane=plane,
            cycles=length + program.latency,
            streams={ch: [word.from_signed(int(v)) for v in samples]
                     for ch, samples in streams.items()},
            taps=[(p.level - 1, p.lane, length + p.level - 1)
                  for _, p in tap_nodes],
            job_id=job_id,
        )
        result = await self.submit(job)
        outputs = {
            graph_index: [word.to_signed(v)
                          for v in stream[p.level - 1:]]
            for (graph_index, p), stream in zip(tap_nodes, result.taps)
        }
        return result, outputs

    # -- dispatch ------------------------------------------------------

    async def _dispatch(self, index: int) -> None:
        queue = self._queues[index]
        while True:
            job, migrate_at, future = await queue.get()
            try:
                result = await self._run_job(index, job, migrate_at)
                if not future.cancelled():
                    future.set_result(result)
            except Exception as exc:
                if not future.cancelled():
                    future.set_exception(exc)
            finally:
                queue.task_done()

    async def _run_job(self, index: int, job: FarmJob,
                       migrate_at: Optional[int]) -> FarmResult:
        worker = self.workers[index]
        began = perf_counter()
        if migrate_at is not None and 0 < migrate_at < job.cycles:
            out = await asyncio.to_thread(worker.execute, job,
                                          migrate_at)
            if not out["done"]:
                # Live migration: resume the checkpoint on the next
                # worker (with one worker, that is a pause/resume on the
                # same ring — still a full checkpoint round trip).
                target = self.workers[(index + 1) % len(self.workers)]
                out = await asyncio.to_thread(
                    target.execute, job, None, out["state"])
                self.jobs_migrated += 1
        else:
            out = await asyncio.to_thread(worker.execute, job)
        result: FarmResult = out["result"]
        elapsed = perf_counter() - began
        self._ema_seconds += 0.25 * (elapsed - self._ema_seconds)
        self.jobs_completed += 1
        self.tenant_jobs[job.tenant] = \
            self.tenant_jobs.get(job.tenant, 0) + 1
        self.tenant_cycles[job.tenant] = \
            self.tenant_cycles.get(job.tenant, 0) + result.cycles_run
        self.plan_hits += result.plan_hits
        self.plan_compiles += result.plan_compiles
        if result.warm:
            self.warm_jobs += 1
        if result.aborted is not None:
            self.jobs_aborted += 1
        return result

    # -- telemetry -----------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        """``farm_*`` metric families on the standard metrics surface.

        Same :class:`~repro.analysis.metrics.MetricsSnapshot` container
        and Prometheus/JSON exporters as the fabric counters, so serving
        dashboards scrape one format.  Tenant names are user-supplied —
        the exporter's label escaping is what keeps a hostile tenant
        name from corrupting the scrape.
        """
        completed = self.jobs_completed
        scalar = [
            ("farm_workers", "gauge",
             "Worker pool slots.", len(self.workers)),
            ("farm_worker_processes", "gauge",
             "Pool slots backed by a live worker process (the rest run "
             "inline).",
             sum(1 for w in self.workers if w.using_process)),
            ("farm_jobs_submitted_total", "counter",
             "Jobs accepted into a worker queue.", self.jobs_submitted),
            ("farm_jobs_completed_total", "counter",
             "Jobs finished (including aborted runs).", completed),
            ("farm_jobs_rejected_total", "counter",
             "Jobs rejected by backpressure, quota, or drain.",
             self.jobs_rejected),
            ("farm_jobs_aborted_total", "counter",
             "Completed jobs that ended in a strict-FIFO abort.",
             self.jobs_aborted),
            ("farm_jobs_migrated_total", "counter",
             "Jobs live-migrated between workers mid-run.",
             self.jobs_migrated),
            ("farm_worker_restarts_total", "counter",
             "Worker processes respawned after dying mid-run.",
             sum(w.restarts for w in self.workers)),
            ("farm_plan_hits_total", "counter",
             "Plan-cache hits accumulated by farm jobs.",
             self.plan_hits),
            ("farm_plan_compiles_total", "counter",
             "Plans compiled on behalf of farm jobs.",
             self.plan_compiles),
            ("farm_plan_warm_ratio", "gauge",
             "Fraction of completed jobs served entirely from cached "
             "plans.",
             (self.warm_jobs / completed) if completed else 0.0),
        ]
        metrics = [Metric(name, kind, help_, (((), float(value)),))
                   for name, kind, help_, value in scalar]
        depth = tuple(
            ((("worker", str(i)),),
             float(self._queues[i].qsize() if self._queues else 0))
            for i in range(len(self.workers))
        )
        metrics.append(Metric(
            "farm_queue_depth", "gauge",
            "Jobs currently queued per worker.", depth))
        metrics.append(Metric(
            "farm_worker_jobs_total", "counter",
            "Jobs executed per worker.",
            tuple(((("worker", str(w.index)),), float(w.jobs_done))
                  for w in self.workers)))
        if self.tenant_jobs:
            metrics.append(Metric(
                "farm_tenant_jobs_total", "counter",
                "Jobs completed per tenant.",
                tuple(((("tenant", tenant),), float(count))
                      for tenant, count
                      in sorted(self.tenant_jobs.items()))))
            metrics.append(Metric(
                "farm_tenant_cycles_total", "counter",
                "Fabric cycles executed per tenant.",
                tuple(((("tenant", tenant),), float(count))
                      for tenant, count
                      in sorted(self.tenant_cycles.items()))))
        return MetricsSnapshot(metrics)

    def __repr__(self) -> str:
        mode = sum(1 for w in self.workers if w.using_process)
        return (f"RingFarm({len(self.workers)} workers "
                f"({mode} processes), routing={self.routing}, "
                f"completed={self.jobs_completed})")


__all__ = ["FarmRejected", "RingFarm"]
