"""Farm workers: one persistent RingSystem owner per pool slot.

A :class:`JobExecutor` is the in-process core: it keeps one long-lived
:class:`~repro.core.ring.Ring` per fabric shape it has served (keyed by
``(layers, width, strict_fifos)``) so the configuration-fingerprinted
:class:`~repro.core.plancache.PlanCache` stays *warm across jobs* — the
whole point of fingerprint-affinity routing.  Executing a job is a
hardware context switch, not a rebuild: ``reset()`` the datapath, apply
the job's configuration plane (complete, so nothing leaks from the
previous tenant), re-adopt the cached compiled plan in one lookup, run.
When the requested plane is already resident on the ring (back-to-back
jobs of one fingerprint — the common case under affinity routing) even
the plane write is skipped, which also keeps the adopted plan installed
instead of invalidating and re-looking it up.

A :class:`FarmWorker` is the parent-side handle: it spawns the executor
into a worker process over a Pipe (fork-preferred context, ready
handshake and graceful in-process fallback), guards
the connection with a lock so concurrent dispatchers serialize, and
respawns a died worker on the next job (cold caches, but no lost pool
slot).  Live migration rides the PR 5 checkpoint machinery: ``execute``
with ``pause_at`` returns a
:class:`~repro.robustness.checkpoint.SystemCheckpoint` mid-run, and
``execute`` with ``resume`` continues bit-identically on any worker.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.core.config_memory import ConfigPlane
from repro.core.ring import Ring, RingGeometry
from repro.core.snapshot import state_digest
from repro.errors import SimulationError
from repro.farm.job import FarmJob, FarmResult
from repro.host.system import RingSystem

#: Seconds a worker process gets to come up before the in-process
#: fallback takes over.
_SPAWN_TIMEOUT = 60.0


class JobExecutor:
    """Executes farm jobs on persistent, plan-cache-warm rings."""

    def __init__(self, plan_cache: int = 8, worker: int = 0):
        self.plan_cache = plan_cache
        self.worker = worker
        self.jobs_run = 0
        self._rings: Dict[Tuple[int, int, bool], Ring] = {}
        # The configuration plane currently resident on each ring.
        # ConfigPlane is a frozen snapshot, so an equal plane means the
        # fabric is already configured — the context switch (and the
        # plan invalidation it implies) can be skipped entirely.
        self._resident: Dict[Tuple[int, int, bool], ConfigPlane] = {}

    def _ring_for(self, job: FarmJob) -> Ring:
        key = (job.layers, job.width, job.strict_fifos)
        ring = self._rings.get(key)
        if ring is None:
            ring = Ring(RingGeometry(layers=job.layers, width=job.width),
                        strict_fifos=job.strict_fifos,
                        plan_cache=self.plan_cache)
            self._rings[key] = ring
        return ring

    def execute(self, job: FarmJob, pause_at: Optional[int] = None,
                resume=None) -> dict:
        """Run *job*; returns ``{"done": True, "result": FarmResult}``.

        With ``pause_at`` (a cycle strictly inside the budget) the run
        stops there and returns ``{"done": False, "state":
        SystemCheckpoint}`` instead — the migration handoff.  With
        ``resume`` (a checkpoint from another worker's pause) the job
        continues from the captured state; streams/FIFO preloads are
        part of the checkpoint, so they are not re-applied.
        """
        job.validate()
        key = (job.layers, job.width, job.strict_fifos)
        ring = self._ring_for(job)
        hits_before = ring.plan_cache.hits
        compiles_before = ring.plan_compiles
        resident = False
        # Context switch: wipe the previous tenant's datapath state and
        # overwrite the *complete* configuration (capture_plane() planes
        # cover every address, including all local slots and routes).
        ring.reset()
        system = RingSystem(ring)
        for layer, pos, limit in job.taps:
            system.data.add_tap(layer, pos, limit=limit)
        if resume is not None:
            # restore() re-applies the checkpointed plane and re-adopts
            # the cached plan; taps above give restore_state its targets.
            # The checkpoint overwrote the fabric configuration, so the
            # resident marker for this shape is stale.
            self._resident.pop(key, None)
            system.restore_checkpoint(resume)
        else:
            # A plane write always drops the adopted compiled plan (a
            # reconfiguration invalidates the fast path by contract), so
            # re-applying an identical plane would cost both the ~1000
            # config writes and a needless cache round-trip.  reset()
            # preserves configuration, so when the resident plane equals
            # the job's the fabric is already configured: skip both.
            resident = self._resident.get(key) == job.plane
            if not resident:
                ring.config.apply_plane(job.plane)
                # Shallow copy: inline executors share the caller's plane
                # object, and a marker aliasing dicts the caller can still
                # mutate would skip an apply the fabric actually needs.
                self._resident[key] = ConfigPlane(
                    dict(job.plane.microwords), dict(job.plane.modes),
                    dict(job.plane.local_programs),
                    dict(job.plane.switch_routes))
            ring.adopt_cached_plan()
            for channel, values in sorted(job.streams.items()):
                system.data.stream(channel, values)
            for layer, pos, channel, words in job.fifos:
                ring.push_fifo(layer, pos, channel, words)
        remaining = job.cycles - system.cycles
        aborted: Optional[str] = None
        if (pause_at is not None and resume is None
                and 0 < pause_at < job.cycles):
            system.run(pause_at - system.cycles)
            return {"done": False, "state": system.checkpoint()}
        try:
            if remaining > 0:
                system.run(remaining)
        except SimulationError as exc:
            aborted = str(exc)
        hits = ring.plan_cache.hits - hits_before
        compiles = ring.plan_compiles - compiles_before
        self.jobs_run += 1
        result = FarmResult(
            job_id=job.job_id,
            tenant=job.tenant,
            worker=self.worker,
            cycles_run=system.cycles,
            taps=[list(tap.samples) for tap in system.data.taps],
            digest=state_digest(ring) if job.want_digest else (),
            aborted=aborted,
            migrated=resume is not None,
            warm=(hits > 0 or resident) and compiles == 0,
            plan_hits=hits,
            plan_compiles=compiles,
        )
        return {"done": True, "result": result}


def _farm_worker_main(conn, plan_cache: int,
                      worker: int) -> None:  # pragma: no cover - subprocess
    """Worker-process loop: jobs in, results out, over one Pipe."""
    executor = JobExecutor(plan_cache=plan_cache, worker=worker)
    try:
        conn.send(("ready",))
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message[0]
        try:
            if op == "stop":
                conn.send(("bye",))
                return
            if op == "ping":
                conn.send(("pong",))
            elif op == "job":
                _, job, pause_at, resume = message
                try:
                    conn.send(("ok", executor.execute(
                        job, pause_at=pause_at, resume=resume)))
                except Exception as exc:
                    conn.send(("error", type(exc).__name__, str(exc)))
            else:
                conn.send(("error", "ValueError", f"unknown op {op!r}"))
        except (BrokenPipeError, OSError):
            return


def _pool_context():
    """Fork-preferred multiprocessing context, None when unavailable."""
    try:
        import multiprocessing as mp
        methods = mp.get_all_start_methods()
        return mp.get_context("fork" if "fork" in methods else methods[0])
    except Exception:  # pragma: no cover - platform dependent
        return None


class FarmWorker:
    """Parent-side handle on one pool slot (process or inline)."""

    def __init__(self, index: int, plan_cache: int = 8,
                 use_processes: bool = True):
        self.index = index
        self.plan_cache = plan_cache
        self.jobs_done = 0
        self.restarts = 0
        self.using_process = False
        self._lock = threading.Lock()
        self._executor: Optional[JobExecutor] = None
        self._proc = None
        self._conn = None
        self._closed = False
        if not (use_processes and self._spawn()):
            self._activate_inline()

    def _activate_inline(self) -> None:
        self._teardown_process()
        self._executor = JobExecutor(plan_cache=self.plan_cache,
                                     worker=self.index)
        self.using_process = False

    def _spawn(self) -> bool:
        ctx = _pool_context()
        if ctx is None:  # pragma: no cover - platform dependent
            return False
        try:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_farm_worker_main,
                args=(child_conn, self.plan_cache, self.index),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            if not parent_conn.poll(_SPAWN_TIMEOUT):
                raise OSError("farm worker handshake timed out")
            reply = parent_conn.recv()
            if reply[0] != "ready":
                raise OSError(f"farm worker failed to start: {reply!r}")
        except Exception:
            try:
                parent_conn.close()
            except Exception:
                pass
            try:
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5)
            except Exception:
                pass
            return False
        self._proc = proc
        self._conn = parent_conn
        self.using_process = True
        return True

    def _teardown_process(self) -> None:
        conn, proc = self._conn, self._proc
        self._conn = self._proc = None
        if conn is not None:
            try:
                conn.send(("stop",))
                if conn.poll(5):
                    conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            try:
                conn.close()
            except Exception:  # pragma: no cover - best effort
                pass
        if proc is not None:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)

    def _ensure_live(self) -> None:
        if self._closed:
            raise SimulationError(
                f"farm worker {self.index} is closed")
        if self._executor is not None:
            return
        if self._proc is not None and self._proc.is_alive():
            return
        # The process died (crash, OOM kill): respawn with cold caches
        # rather than abandoning the pool slot.
        self._teardown_process()
        self.restarts += 1
        if not self._spawn():  # pragma: no cover - platform dependent
            self._activate_inline()

    def execute(self, job: FarmJob, pause_at: Optional[int] = None,
                resume=None) -> dict:
        """Run one job (blocking); thread-safe, serialized per worker."""
        with self._lock:
            self._ensure_live()
            if self._executor is not None:
                out = self._executor.execute(job, pause_at=pause_at,
                                             resume=resume)
                self.jobs_done += 1
                return out
            try:
                self._conn.send(("job", job, pause_at, resume))
                reply = self._conn.recv()
            except (BrokenPipeError, EOFError, OSError) as exc:
                self._teardown_process()
                raise SimulationError(
                    f"farm worker {self.index} died mid-job: {exc}")
            if reply[0] == "ok":
                self.jobs_done += 1
                return reply[1]
            raise SimulationError(
                f"farm worker {self.index} {reply[1]}: {reply[2]}")

    def ping(self) -> bool:
        """Round-trip liveness check (True for inline executors)."""
        with self._lock:
            if self._closed:
                return False
            if self._executor is not None:
                return True
            try:
                self._conn.send(("ping",))
                return self._conn.recv() == ("pong",)
            except (BrokenPipeError, EOFError, OSError):
                return False

    def close(self) -> None:
        """Stop the worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._teardown_process()
            self._executor = None

    def __repr__(self) -> str:
        mode = "process" if self.using_process else "inline"
        return (f"FarmWorker({self.index}, {mode}, "
                f"jobs={self.jobs_done})")


__all__ = ["FarmWorker", "JobExecutor"]
