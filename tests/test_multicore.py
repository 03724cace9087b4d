"""Per-core private caches beneath the shared LLC."""

from dataclasses import replace

import pytest

from repro.config import DataCacheConfig, default_config
from repro.mem.address import AddressSpace
from repro.sim.machine import build_machine
from repro.sim.multicore import (
    PrivateCacheLayer,
    compile_multicore_stream,
    simulate_multicore,
)
from repro.sim.replay import EVENT_PERSIST
from repro.util.units import KB, MB
from repro.workloads.multiprogram import multiprogram_trace
from repro.workloads.synthetic import WorkloadProfile, generate_trace


@pytest.fixture
def config():
    base = default_config(capacity_bytes=64 * MB)
    return replace(
        base, llc=DataCacheConfig(capacity_bytes=256 * KB, associativity=16)
    )


@pytest.fixture
def layer():
    space = AddressSpace(capacity_bytes=64 * MB)
    return PrivateCacheLayer(
        DataCacheConfig(capacity_bytes=4 * KB, associativity=2), space
    )


class TestPrivateCacheLayer:
    def test_per_pid_isolation(self, layer):
        hit, fill, _ = layer.access(0, 0, False)
        assert not hit and fill == 0
        # The same block from another core misses its own cache.
        hit, fill, _ = layer.access(1, 0, False)
        assert not hit and fill == 0
        # But hits its own on re-access.
        hit, _, _ = layer.access(0, 0, False)
        assert hit

    def test_dirty_victims_surface(self, layer):
        sets = 32  # 4 kB / 64 B / 2 ways
        layer.access(0, 0, True)
        layer.access(0, sets * 64, False)
        _, _, victims = layer.access(0, 2 * sets * 64, False)
        assert victims == (0,)

    def test_cores_listed(self, layer):
        layer.access(3, 0, False)
        layer.access(1, 0, False)
        assert layer.cores() == [1, 3]

    def test_hit_rate_per_core(self, layer):
        layer.access(0, 0, False)
        layer.access(0, 0, False)
        assert layer.hit_rate(0) == pytest.approx(0.5)


class TestSimulateMulticore:
    def test_runs_and_reports(self, config):
        trace = multiprogram_trace(
            [
                WorkloadProfile(
                    name="mc-a", footprint_bytes=1 * MB, num_accesses=2000,
                    write_fraction=0.4, think_cycles=4,
                ),
                WorkloadProfile(
                    name="mc-b", footprint_bytes=1 * MB, num_accesses=2000,
                    write_fraction=0.4, think_cycles=4,
                ),
            ],
            seed=6,
        )
        machine = build_machine(config, "amnt", seed=6)
        result = simulate_multicore(machine, trace, seed=6)
        assert result.cycles > 0
        assert result.accesses == 4000

    def test_private_layer_filters_shared_traffic(self, config):
        """With private caches absorbing reuse, the shared LLC sees
        fewer probes than the flat model's."""
        from repro.sim.engine import simulate

        profile = WorkloadProfile(
            name="mc-filter", footprint_bytes=512 * KB, num_accesses=4000,
            write_fraction=0.3, think_cycles=4,
        )
        trace = generate_trace(profile, seed=2)
        flat = build_machine(config, "leaf", seed=2)
        simulate(flat, trace, seed=2)
        layered = build_machine(config, "leaf", seed=2)
        simulate_multicore(layered, trace, seed=2)
        flat_probes = (
            flat.llc.stats.get("hits") + flat.llc.stats.get("misses")
        )
        layered_probes = (
            layered.llc.stats.get("hits") + layered.llc.stats.get("misses")
        )
        assert layered_probes < flat_probes

    def test_protocol_ordering_survives_the_layer(self, config):
        trace = generate_trace(
            WorkloadProfile(
                name="mc-order", footprint_bytes=2 * MB, num_accesses=4000,
                write_fraction=0.5, think_cycles=4,
            ),
            seed=3,
        )
        cycles = {}
        for name in ("leaf", "strict"):
            machine = build_machine(config, name, seed=3)
            cycles[name] = simulate_multicore(machine, trace, seed=3).cycles
        assert cycles["leaf"] < cycles["strict"]


class TestMulticoreStorageTrace:
    """kvstore at 12k accesses: flush-tagged writes and a churn interval
    that falls on private-cache hits."""

    @pytest.fixture(scope="class")
    def kvstore(self):
        from repro.workloads.storage import (
            generate_storage_trace,
            storage_profile,
        )

        return generate_storage_trace(
            storage_profile("kvstore"), seed=1, accesses=12_000
        )

    def test_churn_cadence_counts_every_access(self, kvstore):
        """Churn runs once per ``churn_interval`` accesses, whether the
        access hit a private cache or reached the LLC."""
        machine = build_machine(default_config(), "strict", seed=1)
        calls = []
        real_churn = machine.mm.churn

        def counting_churn(rng, **kwargs):
            calls.append(kwargs)
            return real_churn(rng, **kwargs)

        machine.mm.churn = counting_churn
        simulate_multicore(machine, kvstore, seed=1, churn_interval=64)
        assert len(calls) == len(kvstore) // 64

    def test_one_fenced_persist_per_flush_tagged_write(self, kvstore):
        """CLWB + fence reaches memory through the private cache: every
        flush-tagged write compiles to one persist event (a fenced data
        write on replay), as in simulate()."""
        config = default_config()
        machine = build_machine(config, "strict", seed=1)
        private = PrivateCacheLayer(
            DataCacheConfig(
                capacity_bytes=128 * KB,
                associativity=8,
                access_latency_cycles=12,
            ),
            machine.mee.address_space,
        )
        stream = compile_multicore_stream(
            kvstore, machine.llc, machine.mm, private,
            config.security.block_bytes, seed=1,
        )
        flush_writes = sum(
            1 for access in kvstore if access.is_write and access.flush
        )
        assert flush_writes == 5_435
        assert list(stream.kind).count(EVENT_PERSIST) == flush_writes
        result = simulate_multicore(
            build_machine(config, "strict", seed=1), kvstore, seed=1
        )
        assert result.nvm_stats["nvm.writes.data"] >= flush_writes
