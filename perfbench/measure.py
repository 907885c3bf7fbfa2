"""The closed loop, the machine-speed calibration and the statistics
they report.

Kept apart from ``run.py`` so the self-test can drive the loop with fake
instances and a fake clock.

The machine this runs on may change speed by a third for seconds to
minutes at a time, and CPU time follows wall time, so neither shows the
program alone.  The loop therefore times a fixed reference kernel
between instances, once CALIBRATE_EVERY_S has passed since the last
time, and scales each instance's time by REFERENCE_KERNEL_S over the
mean kernel time at the two ends of its interval: the reported figures
are seconds at the reference speed.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

# p90 needs ten samples beyond it.
MIN_INSTANCES = 100

# Median reference-kernel time on the 2-core VM the bounds were set on.
REFERENCE_KERNEL_S = 0.0033
CALIBRATE_EVERY_S = 0.5
KERNEL_REPEATS = 5


def _reference_kernel() -> int:
    """Exact rational arithmetic, tuples and dicts, like the library's
    inner loops; it touches no library code."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        f = Fraction(i, i + 1) * Fraction(i + 2, i + 3) - Fraction(1, i)
        acc += f
        table[(i, i % 7)] = [f, acc.numerator % 97]
    return len(table)


def kernel_seconds() -> float:
    """Median time of a few runs of the reference kernel."""
    samples = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def speed_scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference speed, given the kernel times at both
    ends of the interval."""
    return seconds * REFERENCE_KERNEL_S * 2 / (kernel_before + kernel_after)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of
    the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def results_rate(cycles: list[tuple[int, float]]) -> float:
    """Checked results per second of timed wall time, over all cycles."""
    if not cycles:
        raise ValueError("no completed cycles")
    return sum(done for done, _ in cycles) / sum(seconds for _, seconds in cycles)


@dataclass
class LoopResult:
    # Seconds, checked instances only, at the reference speed; raw_* keep
    # the unscaled wall times.
    latencies: list[float] = field(default_factory=list)
    cycles: list[tuple[int, float]] = field(default_factory=list)  # (checked, timed seconds)
    raw_latencies: list[float] = field(default_factory=list)
    raw_cycles: list[tuple[int, float]] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # calibrations, in order
    timed_s: float = 0.0  # unscaled
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_instance(inst, clock, tracer=None):
    """Run one instance; returns (seconds, problem or None)."""
    ctx = inst.prepare()
    if tracer is not None:
        tracer.enabled = True
    start = clock()
    try:
        out = inst.call(ctx)
    except Exception as exc:  # a raise is a failed instance, not a crash
        return clock() - start, f"{inst.kind}: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.enabled = False
    elapsed = clock() - start
    problem = inst.check(ctx, out)
    return elapsed, None if problem is None else f"{inst.kind}: {problem}"


def closed_loop(
    cycle_source, seconds: float, clock=time.perf_counter, tracer=None, skip_rare=True, calibrate=kernel_seconds
) -> LoopResult:
    """Run whole cycles, one instance at a time, until the next cycle
    would end past ``seconds`` and at least MIN_INSTANCES were attempted.

    ``cycle_source`` is an iterable of cycles (lists of instances).  Rare
    instances (``inst.rare``) are skipped unless ``skip_rare`` is false.
    ``calibrate`` times the reference kernel before the first instance,
    between instances once CALIBRATE_EVERY_S has passed since the last
    call, and after the last instance; each instance is scaled by the
    calibrations on either side of it.
    """
    result = LoopResult()
    began = clock()
    result.kernel_s.append(calibrate())
    calibrated_at = clock()
    ran = []  # per cycle: (index of the calibration before, seconds, checked) per instance
    for cycle in cycle_source:
        runs = []
        for inst in cycle:
            if inst.rare and skip_rare:
                continue
            if clock() - calibrated_at >= CALIBRATE_EVERY_S:
                result.kernel_s.append(calibrate())
                calibrated_at = clock()
            elapsed, problem = run_instance(inst, clock, tracer)
            result.attempted += 1
            result.timed_s += elapsed
            runs.append((len(result.kernel_s) - 1, elapsed, problem is None))
            if problem is not None:
                result.failed += 1
                result.problems.append(problem)
        ran.append(runs)
        now = clock()
        mean_cycle = (now - began) / len(ran)
        if result.attempted >= MIN_INSTANCES and now - began + mean_cycle > seconds:
            break
    result.kernel_s.append(calibrate())
    for runs in ran:
        raw_timed, timed, checked = 0.0, 0.0, 0
        for before, elapsed, ok in runs:
            scaled = speed_scaled(elapsed, result.kernel_s[before], result.kernel_s[before + 1])
            raw_timed += elapsed
            timed += scaled
            if ok:
                checked += 1
                result.raw_latencies.append(elapsed)
                result.latencies.append(scaled)
        result.raw_cycles.append((checked, raw_timed))
        result.cycles.append((checked, timed))
    return result


def run_cycles(cycles, clock=time.perf_counter, tracer=None, calibrate=kernel_seconds) -> LoopResult:
    """Run exactly the given cycles, rare instances included, with no
    deadline."""
    return closed_loop(iter(cycles), math.inf, clock, tracer, skip_rare=False, calibrate=calibrate)
