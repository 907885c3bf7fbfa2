"""Self-test of the benchmark harness: span arithmetic, the percentile
rule, iterator timing, wrapper restore, the loop and its speed
calibration, the traced run and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from checkout import ROOT, use_checkout_sources  # noqa: E402

use_checkout_sources()

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_and_sibling_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enter("outer")
    clock.advance(1)
    tr.enter("child")
    clock.advance(2)
    tr.enter("grandchild")
    clock.advance(4)
    tr.leave()
    tr.leave()
    tr.enter("child")
    clock.advance(8)
    tr.leave()
    clock.advance(16)
    tr.leave()
    tr.enter("sibling")
    clock.advance(32)
    tr.leave()
    assert tr.total_s["outer"] == 31
    assert tr.self_s["outer"] == 17
    assert tr.total_s["child"] == 14
    assert tr.self_s["child"] == 10
    assert tr.self_s["grandchild"] == tr.total_s["grandchild"] == 4
    assert tr.self_s["sibling"] == 32
    assert tr.top_level_s == 63
    assert sum(tr.self_s.values()) == tr.top_level_s


def test_recursive_span_counts_total_once():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enter("f")
    clock.advance(1)
    tr.enter("f")
    clock.advance(2)
    tr.leave()
    tr.leave()
    assert tr.total_s["f"] == 3
    assert tr.self_s["f"] == 3


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile(reversed(values), 90) == 90
    assert measure.percentile([7.0], 90) == 7.0
    assert measure.percentile([1, 2, 3, 4], 50) == 2
    assert measure.percentile(list(range(1, 11)), 90) == 9
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_results_rate_counts_all_cycles():
    assert measure.results_rate([(10, 1.0), (10, 3.0), (0, 1.0)]) == 4.0
    with pytest.raises(ValueError):
        measure.results_rate([])


def _fake_package(clock):
    """fakepkg.layer defines the functions; fakepkg.user binds them by name."""
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        clock.advance(0.5)
        return None if x < 0 else x

    def steps(n):
        clock.advance(1)  # set-up before the iterator exists

        def gen():
            for i in range(n):
                clock.advance(2)
                layer.leaf(i)  # read at call time, like a lazy import
                yield i

        return gen()

    layer.leaf, layer.steps = leaf, steps
    user.leaf, user.steps_alias = leaf, steps
    pkg.layer, pkg.user = layer, user
    return {"fakepkg": pkg, "fakepkg.layer": layer, "fakepkg.user": user}


@pytest.fixture
def fakepkg(monkeypatch):
    clock = FakeClock()
    for name, mod in _fake_package(clock).items():
        monkeypatch.setitem(sys.modules, name, mod)
    return clock


def test_iterator_is_timed_across_its_iteration(fakepkg, monkeypatch):
    clock = fakepkg
    monkeypatch.setattr(spans, "ITERATORS", {"layer.steps"})
    tr = spans.Tracer(clock)
    layers = {"layer": ("leaf", "steps")}
    with spans.installed(tr, "fakepkg", layers):
        tr.enabled = True
        it = sys.modules["fakepkg.user"].steps_alias(3)
        clock.advance(100)  # caller work between creation and iteration
        assert list(it) == [0, 1, 2]
        tr.enabled = False
    assert tr.calls["layer.steps"] == 1
    assert tr.total_s["layer.steps"] == 1 + 3 * 2.5
    assert tr.self_s["layer.steps"] == 1 + 3 * 2
    assert tr.calls["layer.leaf"] == 3
    assert tr.top_level_s == 1 + 3 * 2.5


def test_wrappers_cover_every_binding_and_are_restored(fakepkg):
    layer = sys.modules["fakepkg.layer"]
    user = sys.modules["fakepkg.user"]
    original = layer.leaf
    tr = spans.Tracer(fakepkg)
    with spans.installed(tr, "fakepkg", {"layer": ("leaf",)}):
        assert layer.leaf is user.leaf is not original
        tr.enabled = True
        assert user.leaf(-1) is None
        assert layer.leaf(4) == 4
        tr.enabled = False
        assert user.leaf(5) == 5  # disabled: passes through, records nothing
    assert layer.leaf is user.leaf is original
    spans.assert_unwrapped("fakepkg")
    assert tr.calls["layer.leaf"] == 2


def test_restore_after_an_exception(fakepkg):
    layer = sys.modules["fakepkg.layer"]
    original = layer.leaf
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer(fakepkg), "fakepkg", {"layer": ("leaf",)}):
            raise RuntimeError("boom")
    assert layer.leaf is original


def test_library_wrap_and_restore():
    import tverberg

    originals = {key: getattr(sys.modules["tverberg." + key.split(".")[0]], key.split(".")[1]) for key in spans.span_keys()}
    tr = spans.Tracer()
    with spans.installed(tr):
        assert tverberg.geometry.solve_phase1 is tverberg.linprog.solve_phase1
        assert tverberg.linprog.solve_phase1 is not originals["linprog.solve_phase1"]
        assert hasattr(tverberg.product.polytope_intersection_point, "perfbench_span")
        assert hasattr(tverberg.plane_tverberg, "perfbench_span")
    spans.assert_unwrapped()
    for key, fn in originals.items():
        layer, name = key.split(".")
        assert getattr(sys.modules["tverberg." + layer], name) is fn
    assert tverberg.geometry.solve_phase1 is tverberg.linprog.solve_phase1


def test_traced_instances_report_partitions_and_hits():
    tr = spans.Tracer()
    doignon = workloads._refuted("doignon_m3", workloads._DOIGNON, 3, workloads.tv.Lattice(2))
    with spans.installed(tr):
        loop = measure.run_cycles([[doignon]], tracer=tr)
    assert loop.failed == 0
    assert tr.partitions["oracle.search_partition"] == 966
    assert tr.calls["oracle.iter_multiset_partitions"] == 1
    assert tr.self_s["oracle.iter_multiset_partitions"] > 0
    assert tr.top_level_s <= loop.timed_s


def _reference_speed():
    return measure.REFERENCE_KERNEL_S


class _Fake:
    def __init__(self, clock, seconds, problem=None, raises=False, rare=False):
        self.kind = "fake"
        self.rare = rare
        self._clock, self._seconds, self._problem, self._raises = clock, seconds, problem, raises

    def prepare(self):
        return None

    def call(self, _):
        self._clock.advance(self._seconds)
        if self._raises:
            raise ValueError("no")
        return 1

    def check(self, _, out):
        self._clock.advance(10)  # untimed
        return self._problem


def test_closed_loop_counts_failures_and_excludes_checks():
    clock = FakeClock()
    cycle = [_Fake(clock, 1), _Fake(clock, 1, problem="bad"), _Fake(clock, 1, raises=True)]
    loop = measure.closed_loop(iter([cycle] * 40), seconds=0, clock=clock, calibrate=_reference_speed)
    assert loop.attempted == 102  # whole cycles until MIN_INSTANCES
    assert loop.failed == 68
    assert len(loop.latencies) == 34
    assert loop.timed_s == 102
    assert loop.cycles[0] == (1, 3)
    assert loop.problems[1] == "fake: ValueError: no"


def test_rare_instances_run_only_in_fixed_cycles():
    clock = FakeClock()
    cycles = [[_Fake(clock, 1), _Fake(clock, 50, rare=True)], [_Fake(clock, 2)]]
    loop = measure.closed_loop(iter(cycles * 60), seconds=0, clock=clock, calibrate=_reference_speed)
    assert loop.attempted == 100
    assert loop.timed_s == 150
    assert loop.cycles[:2] == [(1, 1), (1, 2)]
    fixed = measure.run_cycles(cycles, clock=clock, calibrate=_reference_speed)
    assert fixed.attempted == 3
    assert fixed.timed_s == 53


def test_calibration_scales_each_cycle_by_the_kernel_at_its_ends(monkeypatch):
    monkeypatch.setattr(measure, "REFERENCE_KERNEL_S", 0.004)
    clock = FakeClock()
    kernels = iter([0.004, 0.008, 0.012])
    cycles = [[_Fake(clock, 1)], [_Fake(clock, 1)]]
    loop = measure.closed_loop(iter(cycles), float("inf"), clock=clock, calibrate=lambda: next(kernels))
    assert loop.kernel_s == [0.004, 0.008, 0.012]
    assert loop.raw_latencies == [1, 1]
    assert loop.latencies == pytest.approx([2 / 3, 0.4])
    assert loop.cycles == [(1, pytest.approx(2 / 3)), (1, pytest.approx(0.4))]
    assert loop.timed_s == 2


def test_traced_run_takes_a_fixed_number_of_cycles(monkeypatch):
    clock = FakeClock()

    def make_cycle(rng, index):
        return [_Fake(clock, 0), _Fake(clock, 0, rare=index % 2 == 0)]

    monkeypatch.setitem(workloads.WORKLOADS, "fake", workloads.Workload(make_cycle, 5, 3))
    for seconds in (0, 1000):
        attempted, failed, _, metrics, units, extra = run.traced("fake", 1, seconds)
        assert (attempted, failed, extra["cycles"]) == (2 * 6, 0, 3)
        assert set(metrics) == set(units)


def test_box_points():
    pts = workloads.tv.PointMultiset.from_points([(0, 0), (4, 1), (2, 3), (1, 1), (3, 2)])
    # order statistics for m=2: x in [1, 3], y in [1, 2]
    assert run.order_statistic_box_points(pts, 2) == 6
    assert run.order_statistic_box_points(pts, 6) == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units(spans.span_keys())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
