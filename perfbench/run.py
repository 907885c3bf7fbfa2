"""Benchmark of the exact Tverberg library.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 25 --trace 0

One caller, one process, no threads: a closed loop in which each
instance starts after the previous one returned.  Every run is a fresh
interpreter, so ``helly_number``'s cache starts cold.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs a fixed number of
the workload's cycles untraced and then traced, whatever ``--seconds``
says, and reports per-layer span metrics.  Every output is checked
outside the timer; the command exits 1 on any failed or mismatched
instance.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import measure
import spans
from checkout import ROOT, use_checkout_sources

SETUP_SAMPLES = 5

END_TO_END = [
    ("results_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def per_layer_units(span_keys) -> list[tuple[str, str]]:
    units = []
    for key in span_keys:
        units += [(f"{key}.calls", "count"), (f"{key}.self_s", "s"), (f"{key}.total_s", "s")]
    units += [
        ("linprog.solve_phase1.cells", "count"),
        ("geometry.hull_membership.hit_ratio", "ratio"),
        ("geometry.polytope_intersection_point.hit_ratio", "ratio"),
        ("oracle.search_partition.partitions", "count"),
        ("product.real_tverberg_bruteforce.partitions", "count"),
        ("depth.integer_centerpoint.box_points", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_share", "ratio"),
    ]
    return units


def order_statistic_box_points(points, m: int) -> int:
    """Integer points in the box between the m-th order statistics of each
    coordinate: the candidates the centerpoint scan visits."""
    n = points.size
    if m > n:
        return 0
    volume = 1
    for c in range(points.dim):
        vals = sorted(p[c] for p, mult in points.entries for _ in range(mult))
        lo, hi = math.ceil(vals[m - 1]), math.floor(vals[n - m])
        if lo > hi:
            return 0
        volume *= hi - lo + 1
    return volume


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import and generate,
    at the reference speed and unscaled."""
    probe = [sys.executable, str(ROOT / "perfbench" / "probe_setup.py"), "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    kernel_before = measure.kernel_seconds()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
        kernel_after = measure.kernel_seconds()
        scaled.append(measure.speed_scaled(raw[-1], kernel_before, kernel_after))
        kernel_before = kernel_after
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(workload: str, seed: int, seconds: float):
    import tverberg
    import workloads

    setup_s, raw_setup_s = measure_setup(workload, seed)
    pool = workloads.build(workload, seed)
    spans.assert_unwrapped()
    if tverberg.geometry.solve_phase1 is not tverberg.linprog.solve_phase1:
        raise RuntimeError("untraced run found a rebound solve_phase1")
    loop = measure.closed_loop(itertools.cycle(pool), seconds)
    metrics = {"setup_s": setup_s}
    extra = {"failed_share": loop.failed / loop.attempted, "timed_s": loop.timed_s, "cycles": len(loop.cycles)}
    if loop.latencies:
        metrics["results_per_s"] = measure.results_rate(loop.cycles)
        metrics["latency_p50_ms"] = 1000 * measure.percentile(loop.latencies, 50)
        metrics["latency_p90_ms"] = 1000 * measure.percentile(loop.latencies, 90)
        extra["raw_results_per_s"] = measure.results_rate(loop.raw_cycles)
        extra["raw_latency_p50_ms"] = 1000 * measure.percentile(loop.raw_latencies, 50)
        extra["raw_latency_p90_ms"] = 1000 * measure.percentile(loop.raw_latencies, 90)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra["raw_setup_s"] = raw_setup_s
    extra["kernel_ms_median"] = 1000 * statistics.median(loop.kernel_s)
    extra["kernel_ms_min"] = 1000 * min(loop.kernel_s)
    extra["kernel_ms_max"] = 1000 * max(loop.kernel_s)
    return loop.attempted, loop.failed, loop.problems, metrics, dict(END_TO_END), extra


def traced(workload: str, seed: int, seconds: float):
    import workloads

    cycles = workloads.build(workload, seed)[: workloads.WORKLOADS[workload].traced_cycles]
    spans.assert_unwrapped()
    baseline = measure.run_cycles(cycles)
    workloads.clear_helly_cache()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        spanned = measure.run_cycles(cycles, tracer=tracer)
    spans.assert_unwrapped()

    metrics = {}
    for key in spans.span_keys():
        metrics[f"{key}.calls"] = tracer.calls[key]
        metrics[f"{key}.self_s"] = tracer.self_s[key]
        metrics[f"{key}.total_s"] = tracer.total_s[key]
    metrics["linprog.solve_phase1.cells"] = tracer.cells
    for key in sorted(spans.HIT_TRACKED):
        calls = tracer.calls[key]
        metrics[f"{key}.hit_ratio"] = tracer.hits[key] / calls if calls else 0.0
    for parent in spans.PARTITION_CHILDREN:
        metrics[f"{parent}.partitions"] = tracer.partitions[parent]
    metrics["depth.integer_centerpoint.box_points"] = sum(
        order_statistic_box_points(*args, **kwargs) for args, kwargs in tracer.centerpoint_args
    )
    scaled_s = [sum(timed for _, timed in loop.cycles) for loop in (baseline, spanned)]
    metrics["trace.overhead_ratio"] = scaled_s[1] / scaled_s[0] - 1
    metrics["trace.unattributed_share"] = 1 - tracer.top_level_s / spanned.timed_s
    attempted = baseline.attempted + spanned.attempted
    failed = baseline.failed + spanned.failed
    extra = {
        "failed_share": failed / attempted,
        "untraced_timed_s": baseline.timed_s,
        "traced_timed_s": spanned.timed_s,
        "cycles": len(cycles),
    }
    units = dict(per_layer_units(spans.span_keys()))
    return attempted, failed, baseline.problems + spanned.problems, metrics, units, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    run = traced if args.trace else end_to_end
    attempted, failed, problems, metrics, units, extra = run(args.workload, args.seed, args.seconds)
    env["loadavg_end"] = _loadavg()

    print("env " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print("FAILED " + problem)
    for name, value in extra.items():
        print(f"{name} {value:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
