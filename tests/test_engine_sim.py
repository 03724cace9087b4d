"""The trace-driven simulation loop and its results."""

import pytest

from dataclasses import replace

from repro.config import DataCacheConfig, default_config
from repro.sim.engine import simulate
from repro.sim.machine import build_machine
from repro.sim.results import SimulationResult, normalized_cycles
from repro.util.units import MB
from repro.workloads.synthetic import WorkloadProfile, generate_trace


@pytest.fixture
def config():
    # A small LLC so short unit traces actually generate memory
    # writebacks (the traffic the persistence protocols differ on).
    base = default_config(capacity_bytes=64 * MB)
    return replace(
        base,
        llc=DataCacheConfig(capacity_bytes=64 * 1024, associativity=16),
    )


@pytest.fixture
def trace():
    profile = WorkloadProfile(
        name="sim-unit",
        footprint_bytes=2 * MB,
        num_accesses=4000,
        write_fraction=0.4,
        think_cycles=5,
    )
    return generate_trace(profile, seed=11)


class TestSimulate:
    def test_returns_populated_result(self, config, trace):
        result = simulate(build_machine(config, "leaf"), trace, seed=1)
        assert isinstance(result, SimulationResult)
        assert result.workload == "sim-unit"
        assert result.protocol == "leaf"
        assert result.accesses == 4000
        assert result.cycles > 0
        assert 0.0 <= result.llc_hit_rate <= 1.0
        assert result.page_faults > 0

    def test_deterministic(self, config, trace):
        a = simulate(build_machine(config, "amnt", seed=5), trace, seed=5)
        b = simulate(build_machine(config, "amnt", seed=5), trace, seed=5)
        assert a.cycles == b.cycles
        assert a.nvm_stats == b.nvm_stats

    def test_think_cycles_floor(self, config, trace):
        result = simulate(build_machine(config, "volatile"), trace, seed=1)
        llc_latency = config.llc.access_latency_cycles
        assert result.cycles >= sum(
            access.think_cycles + llc_latency for access in trace
        )

    def test_churn_exercises_reclamation(self, config, trace):
        machine = build_machine(config, "amnt++")
        simulate(machine, trace, seed=1, churn_interval=500)
        assert machine.mm.stats.get("churn_bursts") > 0

    def test_churn_disabled_with_zero_interval(self, config, trace):
        machine = build_machine(config, "leaf")
        simulate(machine, trace, seed=1, churn_interval=0)
        assert machine.mm.stats.get("churn_bursts") == 0

    def test_os_instructions_accounted(self, config, trace):
        result = simulate(build_machine(config, "leaf"), trace, seed=1)
        assert result.os_instructions > 0
        assert result.instructions > result.os_instructions


class TestResultDerivations:
    def test_subtree_hit_rate_none_without_amnt(self, config, trace):
        result = simulate(build_machine(config, "leaf"), trace, seed=1)
        assert result.subtree_hit_rate() is None

    def test_subtree_hit_rate_present_for_amnt(self, config, trace):
        result = simulate(build_machine(config, "amnt"), trace, seed=1)
        rate = result.subtree_hit_rate()
        assert rate is not None
        assert 0.0 <= rate <= 1.0

    def test_movement_rate(self, config, trace):
        result = simulate(build_machine(config, "amnt"), trace, seed=1)
        assert result.movement_rate() is not None
        assert result.movement_rate() < 0.05  # movements are rare

    def test_persist_traffic_zero_for_volatile(self, config, trace):
        result = simulate(build_machine(config, "volatile"), trace, seed=1)
        assert result.persist_traffic() == 0

    def test_cycles_per_access(self, config, trace):
        result = simulate(build_machine(config, "volatile"), trace, seed=1)
        assert result.cycles_per_access() == result.cycles / result.accesses


class TestNormalization:
    def test_normalized_cycles(self, config, trace):
        results = {
            name: simulate(build_machine(config, name), trace, seed=1)
            for name in ("volatile", "leaf", "strict")
        }
        normalized = normalized_cycles(results)
        assert normalized["volatile"] == 1.0
        assert 1.0 <= normalized["leaf"] < normalized["strict"]

    def test_missing_baseline_raises(self, config, trace):
        results = {"leaf": simulate(build_machine(config, "leaf"), trace, seed=1)}
        with pytest.raises(KeyError):
            normalized_cycles(results)
