"""Set up and measure one workload: the timed loop, tracing and metrics."""

import contextlib
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import uuid

from . import layers, trace, workloads

WORK = os.path.join(workloads.ROOT, ".perfbench_work")


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cycles(workload, budget, tracer=None):
    """Run whole timed cycles, at least one, starting another only while the
    timed seconds are predicted to stay within ``budget``. Returns the
    seconds, CPU seconds and output check of each cycle."""
    times, cpu, checks = [], [], []
    while not times or sum(times) + statistics.median(times) <= budget:
        workload.reset()
        c0 = os.times()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.cycle()
            else:
                with tracer.span("cycle"):
                    outcome = workload.cycle()
        except Exception:  # a raising operation is counted as failed
            traceback.print_exc()
            outcome = None
        times.append(time.perf_counter() - t0)
        c1 = os.times()
        cpu.append(c1.user + c1.system - c0.user - c0.system)
        ops = workload.ops
        if outcome is None:
            checks.append(workloads.CycleCheck(ops, ops, problems=["the cycle raised"]))
            continue
        try:
            checks.append(workload.check(outcome))
        except Exception as exc:  # missing or malformed output
            traceback.print_exc()
            checks.append(workloads.CycleCheck(ops, ops, problems=[f"check raised {exc!r}"]))
    return times, cpu, checks


def run_workload(name, seed, seconds, trace_on, import_s=0.0, n=None, work_root=WORK):
    """Set up and measure one workload. Returns (report, result): result is
    the contract's JSON object, or None when no cycle produced a checkable
    result."""
    work_dir = os.path.join(work_root, name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, work_dir) if n is None else cls(seed, work_dir, n=n)
    tracer = trace.Tracer(f"{name}-s{seed}-{uuid.uuid4().hex[:8]}") if trace_on else None
    budget = seconds / 2 if trace_on else seconds

    with contextlib.redirect_stdout(sys.stderr):
        setup_times = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            if tracer is None:
                wl.setup()
            else:
                with tracer.span("setup"), tracer.installed(layers.TARGETS):
                    wl.setup(tracer)
            workloads.warm_up()
            setup_times.append(time.perf_counter() - t0)

        rss_before = peak_rss_mib()
        times, cpu, checks = run_cycles(wl, budget)
        peak_rss = peak_rss_mib()
        traced_times = []
        if tracer is not None:
            with tracer.installed(layers.TARGETS):
                traced_times, _, traced_checks = run_cycles(wl, budget, tracer)
            checks += traced_checks

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    quality = [c.nrmse for c in checks if c.nrmse is not None]
    wall = statistics.median(times)
    end_to_end = {
        "wall_s": (wall, "s"),
        "points_per_s": (wl.points / wall, "1/s"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "nrmse_median": (statistics.median(quality) if quality else None, "ratio"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    report = {
        "run_id": tracer.run_id if tracer else None,
        "environment": workloads.environment(seed, wl),
        "seconds": seconds,
        "trace": int(trace_on),
        "points": wl.points,
        "cycle_s": times,
        "cycle_cpu_s": cpu,
        "import_s": import_s,
        "setup_repeat_s": setup_times,
        "peak_rss_before_timed_mib": rss_before,
        "peak_rss_masked": peak_rss <= rss_before,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "ops_failed_frac": {"value": failed / attempted, "unit": "frac"},
        "checks": [vars(c) for c in checks],
    }

    metrics = report["end_to_end"]
    if tracer is not None:
        spans = tracer.spans
        diag = layers.local_diagnostics([s for s in spans if s.name == "pipeline.rosdos"])
        traced_ranks = layers.traced_local_ranks(spans)
        report["traced_cycle_s"] = traced_times
        report["local_ranks"] = {str(k): v for k, v in sorted(diag["ranks"].items())}
        report["trace_matches_diagnostics"] = (
            traced_ranks == diag["ranks"] and traced_ranks[-1] == diag["fallbacks"])
        per_layer = layers.layer_metrics(
            spans, len(traced_times), wl.setup_repeats,
            cpu_util=sum(cpu) / sum(times),
            overhead_frac=statistics.median(traced_times) / wall - 1.0,
        )
        metrics = {k: {"value": per_layer[k], "unit": u}
                   for k, u in layers.metric_units().items()}
        tracer.write(os.path.join(work_dir, "spans.json"))

    for sub in ("data", "out"):
        shutil.rmtree(os.path.join(work_dir, sub), ignore_errors=True)
    if not quality:
        return report, None
    return report, {"correct": failed == 0, "attempted": attempted,
                    "failed": failed, "metrics": metrics}
