"""Tests of the benchmark itself: tracer, layer metrics, digests, checks."""

from __future__ import annotations

import sys
import types
from dataclasses import replace

import pytest

from perfbench import layers, run, workloads
from perfbench.tracer import Span, Target, Tracer, self_times


class FakeClock:
    """A clock that advances one unit per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_nested_self_times_sum_to_enclosing_span():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return 1

    def middle():
        return tracer.span("b", leaf) + tracer.span("c", leaf)

    def top():
        return tracer.span("a", middle) + tracer.span("d", leaf)

    assert tracer.span("root", top) == 3
    spans = tracer.spans
    own = self_times(spans)
    root = spans[0]
    assert root.layer == "root" and root.parent == -1
    assert sum(own) == pytest.approx(root.duration)
    # ...and for an inner subtree too.
    a = next(s for s in spans if s.layer == "a")
    subtree = [s.span_id for s in spans if s.span_id == a.span_id or s.parent == a.span_id]
    assert sum(own[i] for i in subtree) == pytest.approx(a.duration)
    assert all(seconds >= 0 for seconds in own)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("root", boom)
    assert tracer.spans[0].end > tracer.spans[0].start
    assert tracer._stack == []


@pytest.fixture
def fake_modules():
    """perfbench_fake_src defines f; perfbench_fake_user bound it with
    ``from perfbench_fake_src import f`` (and under an alias)."""
    src = types.ModuleType("perfbench_fake_src")

    def f(x):
        return x + 1

    f.__module__ = src.__name__
    src.f = f

    class Runner:
        def go(self, x):
            return src.f(x) * 2

    src.Runner = Runner
    user = types.ModuleType("perfbench_fake_user")
    user.f = f
    user.g = f
    sys.modules[src.__name__] = src
    sys.modules[user.__name__] = user
    yield src, user
    del sys.modules[src.__name__]
    del sys.modules[user.__name__]


def test_patches_every_module_that_bound_the_function(fake_modules):
    src, user = fake_modules
    original = src.f
    tracer = Tracer(
        [
            Target("fake.f", "perfbench_fake_src:f"),
            Target("fake.go", "perfbench_fake_src:Runner.go"),
        ],
        module_prefixes=("perfbench_fake_src", "perfbench_fake_user"),
    ).install()
    try:
        assert user.f(1) == 2 and user.g(1) == 2 and src.f(1) == 2
        assert src.Runner().go(1) == 4
        assert [s.layer for s in tracer.spans] == [
            "fake.f", "fake.f", "fake.f", "fake.go", "fake.f",
        ]
        assert tracer.spans[-1].parent == tracer.spans[-2].span_id
    finally:
        tracer.uninstall()
    assert src.f is original and user.f is original and user.g is original
    assert "go" in vars(src.Runner) and src.Runner().go(1) == 4


def test_missing_layer_function_is_zero_calls():
    tracer = Tracer(
        [
            Target("engine.replay", "repro.sim.engine:no_such_function"),
            Target("plan.compile", "no_such_package.module:compile"),
            Target("parallel.dispatch", "repro.sim.parallel:NoSuchRunner.run"),
            Target("parallel.dispatch", "repro.sim.parallel:ParallelSweepRunner.nope"),
        ]
    ).install()
    tracer.uninstall()
    assert len(tracer.absent) == 4
    metrics = layers.layer_metrics([])
    expected = set(layers.PER_LAYER_UNITS) - {"trace.overhead_ratio", "failed_ratio"}
    assert set(metrics) == expected
    assert all(value == 0 for value in metrics.values())


def test_real_targets_resolve_at_this_commit():
    tracer = Tracer(layers.TARGETS).install()
    tracer.uninstall()
    # Every layer function exists today; a later commit may delete some.
    assert tracer.absent == []


def test_tail_is_highest_order_statistic_with_ten_beyond():
    assert layers.tail_value(range(100)) == 89
    assert layers.tail_value(range(11)) == 0
    assert layers.tail_value([3.0, 1.0]) == 1.0
    assert layers.tail_value([]) == 0.0


def test_layer_time_is_self_time():
    spans = [
        Span(0, "workload", "workload", 0.0, 10.0, -1),
        Span(1, "parallel.cell", "run_cell", 1.0, 9.0, 0),
        Span(2, "machine.build", "build", 1.5, 2.5, 1),
        Span(3, "engine.direct", "simulate", 3.0, 8.0, 1,
             {"protocol": "amnt++", "events": 100, "accesses": 50}),
    ]
    metrics = layers.layer_metrics(spans)
    assert metrics["parallel.overhead_s"] == pytest.approx(2.0)
    assert metrics["machine.build_ms"] == pytest.approx(1000.0)
    assert metrics["engine.ns_per_event"] == pytest.approx(5e9 / 100)
    assert metrics["engine.ns_per_event.amntpp"] == pytest.approx(5e9 / 100)
    assert metrics["engine.ns_per_event.amnt"] == 0
    assert metrics["mee.events_per_access"] == 2.0


# ---------------------------------------------------------------------------
# correctness check
# ---------------------------------------------------------------------------

def _result():
    from repro.sim.results import SimulationResult

    return SimulationResult(
        workload="kvstore",
        protocol="amnt",
        cycles=123_456,
        accesses=workloads.STORAGE_ACCESSES,
        llc_hit_rate=0.5,
        mdcache_hit_rate=0.25,
        instructions=1000,
        os_instructions=10,
        page_faults=3,
    )


def test_result_perturbed_by_one_cycle_is_counted_failed():
    good = _result()
    bad = replace(good, cycles=good.cycles + 1)
    [reference] = workloads.cells_storage_persist({"kvstore/amnt": good})
    [perturbed] = workloads.cells_storage_persist({"kvstore/amnt": bad})
    assert reference.problem == "" and perturbed.problem == ""
    checker = run.Checker([reference.digest()])
    checker.check([[reference.cell_id, reference.digest(), ""]])
    assert (checker.attempted, checker.failed) == (1, 0)
    checker.check([[perturbed.cell_id, perturbed.digest(), ""]])
    assert (checker.attempted, checker.failed) == (2, 1)


def test_last_bit_of_a_figure_value_changes_the_digest():
    value = 1.2345678901234567
    nudged = value + sys.float_info.epsilon
    assert workloads.cell_digest("a/amnt", value) != workloads.cell_digest(
        "a/amnt", nudged
    )


def test_checker_without_reference_uses_first_run_and_counts_missing():
    checker = run.Checker(None)
    checker.check([["a", "1", ""], ["b", "2", ""]])
    checker.check([["a", "1", ""]])
    assert (checker.attempted, checker.failed) == (4, 1)
    checker.check([["a", "1", "baseline not 1.0"], ["b", "2", ""]])
    assert (checker.attempted, checker.failed) == (6, 2)


def test_invariant_problems_are_reported():
    cells = workloads.cells_parsec_grid(
        {"canneal": {"volatile": 1.0000001, "amnt": 1.1, "leaf": float("nan")}}
    )
    assert [cell.problem != "" for cell in cells] == [True, False, True]


# ---------------------------------------------------------------------------
# traced runs produce the untraced outputs
# ---------------------------------------------------------------------------

SMALL_SIZES = {
    "parsec-grid": {"PARSEC_ACCESSES": 300},
    "level-sweep": {"LEVEL_ACCESSES_EACH": 200},
    "storage-persist": {"STORAGE_ACCESSES": 500},
    "crash-campaign": {"CRASH_ACCESSES": 150},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_digests_equal_untraced(name, monkeypatch):
    for attribute, value in SMALL_SIZES[name].items():
        monkeypatch.setattr(workloads, attribute, value)
    workload = workloads.WORKLOADS[name]
    plain = [c.digest() for c in workload.cells(workload.run(7))]

    tracer = Tracer(layers.TARGETS).install()
    try:
        output = tracer.span("workload", workload.run, 7)
    finally:
        tracer.uninstall()
    cells = workload.cells(output)
    assert [c.digest() for c in cells] == plain
    assert all(c.problem == "" for c in cells)
    metrics = layers.layer_metrics(tracer.spans)
    if name == "crash-campaign":
        assert metrics["faults.cells"] > 0 and metrics["faults.oracle_s"] > 0
    else:
        assert metrics["engine.direct_s"] > 0 and metrics["machine.builds"] > 0
    assert workload.accesses(cells) > 0


def test_level_sweep_access_count_matches_its_traces(monkeypatch):
    monkeypatch.setattr(workloads, "LEVEL_ACCESSES_EACH", 200)
    tracer = Tracer(layers.TARGETS).install()
    try:
        cells = workloads.cells_level_sweep(workloads.run_level_sweep(3))
    finally:
        tracer.uninstall()
    engine = [s for s in tracer.spans if s.layer == "engine.direct"]
    assert sum(s.info["accesses"] for s in engine) == workloads.accesses_level_sweep(
        cells
    )


# ---------------------------------------------------------------------------
# reference and failure modes of run.py
# ---------------------------------------------------------------------------

def test_reference_was_recorded_at_the_current_sizes():
    import json

    from perfbench.record_reference import current_sizes

    document = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    assert document["sizes"] == current_sizes()
    for name in workloads.WORKLOADS:
        assert "2024" in document["digests"][name]


def test_run_fails_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parsec-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
