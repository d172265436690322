"""End-to-end benchmark of the Systolic Ring simulator.

Usage, from the repository root::

    python3 perfbench/run.py                        # every workload
    python3 perfbench/run.py --workload farm_tcp --seed 3 --seconds 10
    python3 perfbench/run.py --workload synth_stream --trace 1

Each workload is set up ``SETUP_REPEATS`` times (``setup_s`` is the
median), then driven in a closed loop for ``--seconds`` and every output
is checked against its golden model.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` spends half the time untraced and
half with span wrappers installed on every layer, and reports the
per-layer metrics, the tracing overhead, and a self-time table whose
rows plus ``unattributed`` add up to the traced wall time.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (failure units: output samples, lanes or
jobs) and ``metrics``.  A fuller record with the host fingerprint, the
exact-count invariants and the layer table goes to ``.perfbench-out/``,
with the traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Unit of every end-to-end metric.
END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "sim_cycles_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def host_fingerprint(backend: str) -> dict:
    import numpy
    from repro.core.nativepath import numba_available
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_active": numba_available(),
        "backend": backend,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def normalised(window):
    """Each job's latency scaled by the host-speed probes around it."""
    speed = window.speed
    return [job.latency_s * speed.factor(job.start,
                                         job.start + job.latency_s)
            for job in window.jobs]


def busy_s(window, latencies) -> float:
    """Seconds of job time per caller.  In a closed loop the callers
    keep one job each in flight, so work / busy_s is the throughput
    (Little's law) without the callers' own think time."""
    return sum(latencies) / len(window.callers)


def end_to_end(window, latencies, setup_times, rss: float) -> dict:
    from perfbench.stats import percentile
    jobs = window.jobs
    busy = busy_s(window, latencies)
    return {
        "samples_per_s": sum(j.samples for j in jobs) / busy,
        "sim_cycles_per_s": sum(j.cycles for j in jobs) / busy,
        "jobs_per_s": len(jobs) / busy,
        "job_p50_ms": percentile(latencies, 50) * 1e3,
        "job_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }


def tail(latencies) -> dict:
    """The highest percentile with ten samples beyond it.  Reported, not
    gated: which percentile that is depends on how many jobs a run
    completes, so from run to run it can change meaning."""
    from perfbench.stats import percentile, tail_percentile
    pct = tail_percentile(len(latencies))
    return {"percentile": pct, "samples": len(latencies),
            "ms": percentile(latencies, pct) * 1e3}


def per_layer(tracer, traced, untraced, replay_span, ring_totals):
    """Per-layer metrics, per job of the traced window."""
    from perfbench.tracing import layer_table, span_totals
    jobs = len(traced.jobs)
    totals = span_totals(tracer.spans)
    table = layer_table(tracer.spans, traced.t0, traced.t1)
    own = {name: row["self_s"] for name, row in table["rows"].items()}
    if replay_span is not None:
        replay = layer_table(tracer.spans, *replay_span)
        for name, row in replay["rows"].items():
            own[name] = own.get(name, 0.0) + row["self_s"]

    def busy(name):
        return totals.get(name, {}).get("busy_s", 0.0) / jobs

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / jobs

    def self_s(*names):
        return sum(own.get(name, 0.0) for name in names) / jobs

    def rate(window):
        work = sum(j.cycles for j in window.jobs)
        return work / busy_s(window, normalised(window))

    job_list = traced.jobs
    completed = sum(1 for j in job_list if j.samples)
    metrics = {
        "kernels.pipeline_s": busy("kernels.pipeline"),
        "kernels.self_s": self_s("kernels.pipeline"),
        "config.apply_plane_s": busy("config.apply_plane"),
        "config.apply_plane_calls": calls("config.apply_plane"),
        "host.system_run_s": busy("host.system_run"),
        "host.self_s": self_s("host.system_run", "host.step"),
        "host.step_calls": calls("host.step"),
        "host.bulk_cycles": tracer.counts["host.bulk_cycles"] / jobs,
        "core.step_s": busy("core.step"),
        "core.step_calls": calls("core.step"),
        "core.run_s": busy("core.run"),
        "core.run_cycles": tracer.counts["core.run_cycles"] / jobs,
    }
    metrics.update((name, value / jobs)
                   for name, value in sorted(ring_totals.items()))
    call_s = busy("farm.worker.call")
    executor_s = busy("farm.worker.executor")
    metrics.update({
        "farm.server.request_bytes":
            sum(j.request_bytes for j in job_list) / jobs,
        "farm.server.decode_s": busy("farm.server.decode"),
        "farm.server.encode_s": busy("farm.server.encode"),
        "farm.server.rtt_s": busy("farm.server.rtt"),
        "farm.farm.submit_s": busy("farm.farm.submit"),
        "farm.farm.fingerprint_s": busy("farm.farm.fingerprint"),
        "farm.farm.queue_wait_s": busy("farm.farm.submit") - call_s,
        "farm.farm.rejected": traced.extra.get("rejected", 0) / jobs,
        "farm.farm.retries": sum(j.retries for j in job_list) / jobs,
        "farm.worker.call_s": call_s,
        "farm.worker.executor_s": executor_s,
        "farm.worker.transport_s": call_s - executor_s if call_s else 0.0,
        "farm.worker.warm_ratio":
            (sum(1 for j in job_list if j.warm) / completed
             if call_s and completed else 0.0),
        "farm.worker.plan_compiles":
            (sum(j.plan_compiles for j in job_list) / jobs
             if call_s else 0.0),
        "trace.overhead_frac": rate(untraced) / rate(traced) - 1.0,
        "trace.unattributed_frac":
            table["unattributed_s"] / table["wall_s"],
    })
    return metrics, table


def _unit(name: str) -> str:
    if name in ("trace.overhead_frac", "trace.unattributed_frac",
                "farm.worker.warm_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s/job"
    if name.endswith("_bytes"):
        return "B/job"
    return "count/job"


def print_table(table: dict) -> None:
    wall = table["wall_s"]
    print(f"  {'span':24} {'calls':>9} {'busy_s':>10} {'self_s':>10} "
          f"{'self%':>7}")
    rows = sorted(table["rows"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"  {name:24} {row['calls']:9d} {row['busy_s']:10.4f} "
              f"{row['self_s']:10.4f} {100 * row['self_s'] / wall:6.2f}%")
    total = sum(r["self_s"] for r in table["rows"].values())
    print(f"  {'unattributed':24} {'':9} {'':10} "
          f"{table['unattributed_s']:10.4f} "
          f"{100 * table['unattributed_s'] / wall:6.2f}%")
    print(f"  {'self + unattributed':24} {'':9} {'':10} "
          f"{total + table['unattributed_s']:10.4f}  (traced wall "
          f"{wall:.4f} s)")


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> dict:
    from perfbench import workloads
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracing import Tracer, install
    workload = workloads.WORKLOADS[name](seed)
    # The inputs and goldens live for the whole run; keep the cyclic
    # collector from walking them on the program's time.
    gc.collect()
    gc.freeze()
    setups = []
    speed = HostSpeed()
    try:
        speed.probe()
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            began = perf_counter()
            workload.setup()
            setups.append((began, perf_counter()))
            speed.probe()
        if not trace:
            window = workload.run(seconds, workload.min_jobs)
            windows = [window]
        else:
            untraced = workload.run(seconds / 2)
            tracer = install(Tracer())
            try:
                traced = workload.run(seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            replay_span = None
            if hasattr(workload, "replay"):
                # Once bare, for the executor's own time; once with
                # every wrapper, for the layers beneath it.
                began = perf_counter()
                workload.replay(tracer, "farm.worker.executor")
                install(tracer)
                try:
                    workload.replay(tracer, "replay.job")
                finally:
                    tracer.uninstall()
                replay_span = (began, perf_counter())
            windows = [untraced, traced]
    finally:
        workload.close()

    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "why": workload.why,
        "host": host_fingerprint(workload.backend),
        "invariants": dict(
            workloads.invariants(windows[0], workload.prefix_jobs),
            setup_plan_compiles=workload.setup_compiles),
    }
    jobs = [job for window in windows for job in window.jobs]
    attempted = sum(j.units for j in jobs)
    failed = sum(j.failed for j in jobs)
    record["attempted"], record["failed"] = attempted, failed
    record["failed_frac"] = failed / attempted
    if not trace:
        window = windows[0]
        latencies = normalised(window)
        setup_times = [(end - began) * speed.factor(began, end)
                       for began, end in setups]
        rss = peak_rss_mb()
        values = end_to_end(window, latencies, setup_times, rss)
        record["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
        # The same figures in plain host time, for reference only.
        raw = end_to_end(window, [j.latency_s for j in window.jobs],
                         [end - began for began, end in setups], rss)
        record["host_time"] = raw
        record["tail"] = tail(latencies)
        record["host_time_tail"] = tail([j.latency_s
                                         for j in window.jobs])
        record["samples"] = {
            "latency_samples": len(latencies),
            "setup_samples": len(setup_times),
            "probes": len(window.speed.seconds),
            "probe_median_s": statistics.median(window.speed.seconds)}
    else:
        values, table = per_layer(tracer, traced, untraced, replay_span,
                                  tracer.ring_totals())
        record["layer_table"] = table
        record["metrics"] = {k: {"value": v, "unit": _unit(k)}
                             for k, v in values.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{name}-seed{seed}-spans.jsonl.gz"
        tracer.write(spans, traced.t0,
                     lambda t: "traced" if t <= traced.t1 else "replay")
        record["spans_file"] = str(spans.relative_to(ROOT))
    report(record)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def report(record: dict) -> None:
    host = record["host"]
    print(f"== {record['workload']}  seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} ==")
    print(f"  {record['why']}")
    print("  host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    if "samples" in record:
        s = record["samples"]
        print(f"  samples: {s['latency_samples']} jobs, "
              f"{s['setup_samples']} set-ups, {s['probes']} host-speed "
              f"probes (median {s['probe_median_s'] * 1e3:.3f} ms)")
        print(f"  {'':28} {'normalised':>16} {'host time':>16}")
    raw = record.get("host_time", {})
    for name, metric in record["metrics"].items():
        plain = f"{raw[name]:16.6f}" if name in raw else ""
        print(f"  {name:28} {metric['value']:16.6f} {plain} "
              f"{metric['unit']}")
    if "tail" in record:
        t, h = record["tail"], record["host_time_tail"]
        name = f"job_p{t['percentile']:g}_ms (ungated)"
        print(f"  {name:28} {t['ms']:16.6f} {h['ms']:16.6f} ms "
              f"({t['samples']} samples)")
    print(f"  {'failed_frac':28} {record['failed_frac']:16.6f} "
          f"({record['failed']} of {record['attempted']} units)")
    print("  invariants: " + json.dumps(record["invariants"],
                                        sort_keys=True))
    if "layer_table" in record:
        print_table(record["layer_table"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    # One core for the benchmark and the farm's worker, which inherits
    # it.  When the farm's two processes hand each job across two
    # virtual CPUs, the hypervisor's scheduling stalls move jobs/s by
    # 12% and p99 by half between runs of the same code; on one core
    # the host-speed probe also sees every core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload {unknown} or bad --seconds; "
                     f"workloads: {', '.join(WORKLOADS)}")
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    if len(records) == 1:
        record = records[0]
        result = {"correct": record["failed"] == 0,
                  "attempted": record["attempted"],
                  "failed": record["failed"],
                  "metrics": record["metrics"]}
    else:
        result = {r["workload"]: {"correct": r["failed"] == 0,
                                  "attempted": r["attempted"],
                                  "failed": r["failed"],
                                  "metrics": r["metrics"]}
                  for r in records}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
