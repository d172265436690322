"""The four benchmark workloads.

Every workload is a closed loop: one caller issues the next job only
after the previous one returned.
Inputs come from the seed alone and are generated, with their golden
outputs, before anything is timed.  A job's outputs are checked against
the golden outside its latency measurement.

A workload object is driven as::

    workload.setup()             # timed: build, first plan compiles,
                                 # first completed unit
    window = workload.run(seconds, min_jobs)
    workload.close()

``setup`` may be called again after ``teardown`` to repeat the set-up.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from perfbench.hostspeed import PROBE_INTERVAL_S, HostSpeed
from repro import word
from repro.core.ring import Ring, RingGeometry
from repro.kernels import reference, scenarios
from repro.kernels.scenarios import EFFECTS_GEOMETRY, SYNTH_GEOMETRY

#: Latency samples the tail needs beyond p90, so every workload runs at
#: least this many jobs per window whatever the window length.
MIN_JOBS = 100


@dataclass
class Job:
    """One completed job as the caller saw it."""

    start: float
    latency_s: float
    samples: int         # output samples (lane-samples for lanes_fir)
    units: int           # failure units attempted: samples, lanes or jobs
    failed: int          # failure units that missed their golden
    cycles: int          # simulated fabric cycles
    outputs: list = field(repr=False, default_factory=list)
    switches: int = 0
    plan_compiles: int = 0
    request_bytes: int = 0
    retries: int = 0
    warm: bool = False


@dataclass
class Window:
    """A measured stretch of closed-loop jobs."""

    t0: float
    t1: float
    #: One list per caller, each in submission order.
    callers: List[List[Job]]
    speed: HostSpeed
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def jobs(self) -> List[Job]:
        return [job for jobs in self.callers for job in jobs]


def invariants(window: Window, prefix: int) -> dict:
    """Exact counts over each caller's first *prefix* jobs.

    The same seed gives the same values on every run and every host; a
    change that only speeds the simulator up must leave them alone.
    """
    head = [job for jobs in window.callers for job in jobs[:prefix]]
    digest = hashlib.sha256()
    for job in head:
        digest.update(json.dumps(job.outputs).encode())
    return {
        "jobs": len(head),
        "sim_cycles": sum(j.cycles for j in head),
        "outputs_sha256": digest.hexdigest(),
        "plane_switches": sum(j.switches for j in head),
        "plan_compiles": sum(j.plan_compiles for j in head),
        "request_bytes_total": sum(j.request_bytes for j in head),
    }


def _keep_outputs(jobs: List[Job], job: Job, prefix: int) -> None:
    """Append *job*; past the invariant prefix its outputs, already
    checked, are dropped so the heap does not grow with the run."""
    if len(jobs) >= prefix:
        job.outputs = []
    jobs.append(job)


def _rng(name: str, seed: int, *salt) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random("/".join(map(str, (name, seed) + salt)))


def _failed_samples(got: List[int], want: List[int]) -> int:
    if got == want:
        return 0
    matched = sum(1 for a, b in zip(got, want) if a == b)
    return len(want) - matched


class _ClosedLoop:
    """Shared single-caller loop for the in-process workloads."""

    name = ""
    backend = ""
    prefix_jobs = 4
    min_jobs = MIN_JOBS

    def run(self, seconds: float, min_jobs: int = MIN_JOBS,
            tracer=None) -> Window:
        jobs: List[Job] = []
        speed = HostSpeed()
        t0 = perf_counter()
        deadline = t0 + seconds
        speed.probe()
        index = 0
        while len(jobs) < min_jobs or perf_counter() < deadline:
            if tracer is None:
                job = self.job(index)
                speed.probe()
            else:
                handle = tracer.open("job", trace=f"job{index}")
                try:
                    job = self.job(index)
                finally:
                    tracer.close(handle)
                handle = tracer.open("bench.probe")
                speed.probe()
                tracer.close(handle)
            _keep_outputs(jobs, job, self.prefix_jobs)
            index += 1
        return Window(t0, perf_counter(), [jobs], speed)

    def teardown(self) -> None:
        """Nothing outlives a set-up in the in-process workloads."""

    def close(self) -> None:
        self.teardown()


# -- synth_stream ------------------------------------------------------


class SynthStream(_ClosedLoop):
    """``run_synth_voice`` at chunk 480 on a native-backend ring."""

    name = "synth_stream"
    backend = "native"
    GEOMETRY = SYNTH_GEOMETRY
    why = ("long-chunk streaming: per-cycle host I/O dominates; "
           "native-ineligible SELF recurrence")
    CHUNK = 480
    BLOCK = 2 * CHUNK
    POOL = 4
    FCW_A, FCW_B, ECHO_GAIN = 1400, 1750, 22000

    def __init__(self, seed: int):
        self.blocks = [self._input(_rng(self.name, seed, i))
                       for i in range(self.POOL)]
        self.goldens = [self._golden(b) for b in self.blocks]
        self.first = self.blocks[0][:self.CHUNK]
        self.first_golden = self._golden(self.first)
        self.ring: Optional[Ring] = None
        self.setup_compiles = 0

    def _input(self, rng: random.Random) -> List[int]:
        """Piecewise-linear envelope: ramps between random levels."""
        out: List[int] = []
        level = 0
        while len(out) < self.BLOCK:
            target = rng.randint(0, 32767)
            steps = rng.randint(16, 240)
            out.extend(level + (target - level) * k // steps
                       for k in range(1, steps + 1))
            level = target
        return out[:self.BLOCK]

    def _golden(self, envelope: List[int]) -> List[int]:
        return reference.synth_voice_pipeline(
            envelope, self.FCW_A, self.FCW_B, SYNTH_GEOMETRY.layers,
            self.ECHO_GAIN)

    def _call(self, envelope: List[int]):
        return scenarios.run_synth_voice(
            envelope, fcw_a=self.FCW_A, fcw_b=self.FCW_B,
            echo_gain=self.ECHO_GAIN, chunk=self.CHUNK, ring=self.ring)

    def setup(self) -> None:
        self.ring = Ring(self.GEOMETRY, backend=self.backend)
        result = self._call(self.first)
        if result.outputs != self.first_golden:
            raise RuntimeError(f"{self.name}: set-up output mismatch")
        self.setup_compiles = self.ring.plan_compiles

    def job(self, index: int) -> Job:
        slot = index % self.POOL
        compiles = self.ring.plan_compiles
        began = perf_counter()
        self.ring.reset()
        result = self._call(self.blocks[slot])
        latency = perf_counter() - began
        return Job(began, latency, len(result.outputs), self.BLOCK,
                   _failed_samples(result.outputs, self.goldens[slot]),
                   result.cycles, result.outputs, result.switches,
                   result.plan_compiles - compiles)


# -- effects_churn -----------------------------------------------------


class EffectsChurn(SynthStream):
    """``run_effects_chain`` at chunk 32: a plane switch every 32-39
    cycles."""

    name = "effects_churn"
    backend = "native"
    GEOMETRY = EFFECTS_GEOMETRY
    why = ("reconfiguration churn: apply_plane and plan re-adoption "
           "beside the stream; chorus plane native-eligible")
    CHUNK = 32
    BLOCK = 16 * CHUNK
    POOL = 4
    MASTER_GAIN, ECHO_GAIN = 26000, 20000
    AMPLITUDE = 3000

    def _input(self, rng: random.Random) -> List[int]:
        return [rng.randint(-self.AMPLITUDE, self.AMPLITUDE)
                for _ in range(self.BLOCK)]

    def _golden(self, signal: List[int]) -> List[int]:
        return reference.effects_chain_pipeline(
            signal, scenarios.EFFECTS_CHORUS_DEPTH, self.MASTER_GAIN,
            EFFECTS_GEOMETRY.layers, self.ECHO_GAIN)

    def _call(self, signal: List[int]):
        return scenarios.run_effects_chain(
            signal, master_gain=self.MASTER_GAIN,
            echo_gain=self.ECHO_GAIN, chunk=self.CHUNK, ring=self.ring)


# -- lanes_fir ---------------------------------------------------------

#: 8-tap coefficients; sum |c| = 20, so |x| <= 1000 keeps every output
#: inside INT16 and the golden needs no wrap.
FIR_TAPS = (1, -2, 3, 4, 4, 3, -2, 1)
FIR_AMPLITUDE = 1000


def _fir_stream(rng: random.Random, length: int) -> List[int]:
    return [rng.randint(-FIR_AMPLITUDE, FIR_AMPLITUDE)
            for _ in range(length)]


class LanesFir(_ClosedLoop):
    """Spatial FIR on the batch engine, 32 independent lanes per run."""

    name = "lanes_fir"
    backend = "batch"
    why = ("lane engine and batch host channels/taps: 32 per-lane "
           "streams through RingSystem.run with a skip=7 tap")
    LANES = 32
    SAMPLES = 256
    POOL = 4

    def __init__(self, seed: int):
        self.inputs = [
            [_fir_stream(_rng(self.name, seed, i, lane), self.SAMPLES)
             for lane in range(self.LANES)]
            for i in range(self.POOL)]
        self.words = [[[word.from_signed(v) for v in lane]
                       for lane in lanes] for lanes in self.inputs]
        self.goldens = [[reference.fir(lane, FIR_TAPS) for lane in lanes]
                        for lanes in self.inputs]
        self.ring: Optional[Ring] = None
        self.system = None
        self.setup_compiles = 0

    def setup(self) -> None:
        from repro.kernels.fir import build_spatial_fir
        self.ring = Ring(RingGeometry(layers=len(FIR_TAPS), width=2),
                         backend=self.backend, batch_size=self.LANES)
        self.system = build_spatial_fir(FIR_TAPS, ring=self.ring)
        job = self.job(0)
        if job.failed:
            raise RuntimeError(f"{self.name}: set-up output mismatch")
        self.setup_compiles = self.ring.plan_compiles

    def job(self, index: int) -> Job:
        slot = index % self.POOL
        system, ring = self.system, self.ring
        compiles = ring.plan_compiles
        began = perf_counter()
        ring.reset()
        for lane, words in enumerate(self.words[slot]):
            system.data.stream(0, words, lane=lane)
        tap = system.data.add_tap(len(FIR_TAPS) - 1, 1,
                                  skip=len(FIR_TAPS) - 1,
                                  limit=self.SAMPLES)
        cycles = self.SAMPLES + len(FIR_TAPS)
        system.run(cycles)
        outputs = [[word.to_signed(v) for v in tap.lane(lane)]
                   for lane in range(self.LANES)]
        system.data.taps.remove(tap)
        latency = perf_counter() - began
        failed = sum(1 for got, want in zip(outputs, self.goldens[slot])
                     if got != want)
        return Job(began, latency, self.LANES * self.SAMPLES, self.LANES,
                   failed, cycles, outputs, 0,
                   ring.plan_compiles - compiles)


# -- farm_tcp ----------------------------------------------------------


@dataclass
class _FarmEntry:
    payload: dict        # submit request, job_id filled in at send time
    golden: List[int]


class FarmTcp:
    """A closed-loop TCP client in front of a one-worker RingFarm.

    One client, not two: with two, the worker and the event loop are
    runnable at once and share the benchmark's one core in time slices,
    which spreads the median round trip over a 2:1 range from run to run
    (measured: 17% between runs of the same code).
    """

    name = "farm_tcp"
    backend = "fastpath"
    why = ("serving path: JSON/TCP decode, farm queue, pipe to one "
           "worker process, warm plan cache with a cold tail")
    CLIENTS = 1
    HOT = 6
    HOT_SHARE = 0.95
    SAMPLES = 64
    CYCLES = SAMPLES + len(FIR_TAPS)
    SKIP = len(FIR_TAPS) - 1
    #: Jobs generated per client before timing; a faster program wraps
    #: round, by which time the cold fingerprints have left the cache.
    POOL = 1024
    PLAN_CACHE = 8
    TIMEOUT_S = 30.0
    prefix_jobs = 100
    #: Enough round trips for ten beyond p99.
    min_jobs = 1000

    def __init__(self, seed: int):
        from repro.farm.job import FarmJob, job_to_wire
        from repro.kernels.fir import build_spatial_fir
        self._FarmJob, self._job_to_wire = FarmJob, job_to_wire
        self._build = build_spatial_fir
        rng = _rng(self.name, seed, "hot")
        self._seen = set()
        self.hot = [self._coeffs(rng) for _ in range(self.HOT)]
        self._templates: Dict[tuple, dict] = {}
        self.pools = []
        for client in range(self.CLIENTS):
            rng = _rng(self.name, seed, "client", client)
            self.pools.append([self._entry(rng) for _ in range(self.POOL)])
        self.first = self._entry(_rng(self.name, seed, "setup"), hot=True)
        self.loop = asyncio.new_event_loop()
        self.farm = self.server = None
        self.conns: list = []
        self.cursor = [0] * self.CLIENTS
        self.sent: List[tuple] = []
        self.setup_compiles = 0

    def _coeffs(self, rng: random.Random) -> tuple:
        while True:
            coeffs = tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                           for _ in FIR_TAPS)
            if coeffs not in self._seen:
                self._seen.add(coeffs)
                return coeffs

    def _template(self, coeffs: tuple) -> dict:
        template = self._templates.get(coeffs)
        if template is None:
            plane = self._build(coeffs).ring.config.capture_plane()
            template = self._job_to_wire(self._FarmJob(
                tenant="bench", layers=len(FIR_TAPS), width=2,
                plane=plane, cycles=self.CYCLES,
                taps=[(len(FIR_TAPS) - 1, 1, self.CYCLES - 1)],
                want_digest=False))
            self._templates[coeffs] = template
        return template

    def _entry(self, rng: random.Random, hot: Optional[bool] = None
               ) -> _FarmEntry:
        if hot is None:
            hot = rng.random() < self.HOT_SHARE
        coeffs = (self.hot[rng.randrange(self.HOT)] if hot
                  else self._coeffs(rng))
        signal = _fir_stream(rng, self.SAMPLES)
        job = dict(self._template(coeffs))
        job["streams"] = {"0": [word.from_signed(v) for v in signal]}
        return _FarmEntry({"op": "submit", "job": job},
                          reference.fir(signal, coeffs))

    # -- lifecycle -----------------------------------------------------

    async def _start(self) -> None:
        from repro.farm import RingFarm
        from repro.farm.server import FarmServer
        self.farm = RingFarm(workers=1, plan_cache=self.PLAN_CACHE)
        self.server = FarmServer(self.farm)
        await self.server.start()
        self.conns = [await asyncio.open_connection(
            self.server.host, self.server.port)
            for _ in range(self.CLIENTS)]
        job = await self._submit(0, self.first, "setup", None)
        if job.failed:
            raise RuntimeError(f"{self.name}: set-up job failed")
        self.setup_compiles = job.plan_compiles

    async def _stop(self) -> None:
        for _reader, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self.conns = []
        if self.server is not None:
            await self.server.stop()
        if self.farm is not None:
            await self.farm.close()
        self.farm = self.server = None

    def setup(self) -> None:
        self.loop.run_until_complete(self._start())

    def teardown(self) -> None:
        self.loop.run_until_complete(self._stop())

    def close(self) -> None:
        try:
            self.teardown()
        finally:
            self.loop.run_until_complete(
                self.loop.shutdown_default_executor())
            self.loop.close()

    # -- clients -------------------------------------------------------

    async def _reconnect(self, client: int) -> None:
        self.conns[client][1].close()
        self.conns[client] = await asyncio.open_connection(
            self.server.host, self.server.port)

    async def _submit(self, client: int, entry: _FarmEntry, job_id: str,
                      tracer) -> Job:
        """One closed-loop submit, retrying on backpressure."""
        entry.payload["job"]["job_id"] = job_id
        line = json.dumps(entry.payload).encode() + b"\n"
        reader, writer = self.conns[client]
        retries = 0
        began = perf_counter()
        rtt = tracer.open("farm.server.rtt", key=job_id) if tracer else None
        try:
            while True:
                writer.write(line)
                await writer.drain()
                try:
                    raw = await asyncio.wait_for(reader.readline(),
                                                 self.TIMEOUT_S)
                except asyncio.TimeoutError:
                    await self._reconnect(client)
                    reply = {"ok": False, "error": "client timeout"}
                    break
                reply = json.loads(raw) if raw else {
                    "ok": False, "error": "connection closed"}
                if reply.get("error") != "rejected":
                    break
                retries += 1
                await asyncio.sleep(reply["retry_after"])
        finally:
            if rtt is not None:
                tracer.close(rtt)
        latency = perf_counter() - began
        outputs: List[int] = []
        failed = 1
        compiles = 0
        warm = False
        if reply.get("ok"):
            result = reply["result"]
            outputs = [word.to_signed(v)
                       for v in result["taps"][0][self.SKIP:]]
            failed = int(outputs != entry.golden)
            compiles = result["plan_compiles"]
            warm = result["warm"]
        return Job(began, latency, len(outputs), 1, failed,
                   result["cycles_run"] if reply.get("ok") else 0,
                   outputs, 0, compiles, len(line), retries, warm)

    async def _client(self, client: int, deadline: float, min_jobs: int,
                      out: List[Job], tracer) -> None:
        pool = self.pools[client]
        done = 0
        while done < min_jobs or perf_counter() < deadline:
            n = self.cursor[client]
            self.cursor[client] += 1
            job_id = f"c{client}-{n}"
            entry = pool[n % len(pool)]
            if tracer is None:
                job = await self._submit(client, entry, job_id, None)
            else:
                handle = tracer.open("job", key=job_id, trace=job_id)
                try:
                    job = await self._submit(client, entry, job_id,
                                             tracer)
                finally:
                    tracer.close(handle)
                self.sent.append((perf_counter(), job_id, entry))
            _keep_outputs(out, job, self.prefix_jobs)
            done += 1

    @staticmethod
    async def _probe(speed: HostSpeed, tracer) -> None:
        while True:
            handle = tracer.open("bench.probe") if tracer else None
            speed.probe()
            if handle is not None:
                tracer.close(handle)
            await asyncio.sleep(PROBE_INTERVAL_S)

    async def _run(self, seconds: float, min_jobs: int, tracer) -> Window:
        per_client: List[List[Job]] = [[] for _ in range(self.CLIENTS)]
        rejected = self.farm.jobs_rejected
        speed = HostSpeed()
        t0 = perf_counter()
        prober = asyncio.get_running_loop().create_task(
            self._probe(speed, tracer))
        try:
            await asyncio.gather(*(
                self._client(c, t0 + seconds, min_jobs // self.CLIENTS,
                             per_client[c], tracer)
                for c in range(self.CLIENTS)))
        finally:
            prober.cancel()
            try:
                await prober
            except asyncio.CancelledError:
                pass
        speed.probe()
        window = Window(t0, perf_counter(), per_client, speed)
        window.extra["rejected"] = self.farm.jobs_rejected - rejected
        return window

    def run(self, seconds: float, min_jobs: int = MIN_JOBS,
            tracer=None) -> Window:
        self.sent = []
        return self.loop.run_until_complete(
            self._run(seconds, min_jobs, tracer))

    def replay(self, tracer, span: str) -> None:
        """Run the traced window's jobs again through a fresh in-process
        ``JobExecutor``, in the order the worker completed them, with a
        *span* around each ``execute``."""
        from repro.farm.job import job_from_wire
        from repro.farm.worker import JobExecutor
        executor = JobExecutor(plan_cache=self.PLAN_CACHE)
        for _when, job_id, entry in sorted(self.sent,
                                           key=lambda item: item[0]):
            job = job_from_wire(dict(entry.payload["job"], job_id=job_id))
            handle = tracer.open(span, trace=f"replay-{job_id}")
            try:
                executor.execute(job)
            finally:
                tracer.close(handle)


WORKLOADS = {cls.name: cls
             for cls in (SynthStream, EffectsChurn, LanesFir, FarmTcp)}
