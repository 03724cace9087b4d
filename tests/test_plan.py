"""Metadata-plan compilation: planned replay == direct simulation.

The plan compiler (repro.sim.plan) resolves the datapath record of
every event a boundary stream holds — counter line, HMAC line, BMT
ancestor path, premixed cache-set indices — once per (trace, geometry),
with the same resolver the MEE's direct entries use. These tests check
full-result equality with the ``simulate()`` oracle across the protocol
lineup, a randomized-geometry property test that checks every plan
record against the resolver and against first principles, the kernel's
metadata-cache probe against the reference LRU cache, and cache-contract
tests (geometry change recompiles; a metadata-cache-only change shares
the compiled pair).
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.plan as plan_module
from repro.cache.cache import build_cache, mix_of
from repro.cache.metadata_cache import counter_key, hmac_key, node_key
from repro.config import MetadataCacheConfig, default_config
from repro.core.mee import (
    MACS_PER_LINE,
    MemoryEncryptionEngine,
    MetadataRegion,
    RecordResolver,
)
from repro.core.protocol import (
    make_protocol,
    protocol_names,
    protocol_uses_modified_os,
)
from repro.integrity.geometry import TreeGeometry
from repro.mem.address import AddressSpace
from repro.bench.perf import direct_cell
from repro.sim.engine import simulate, simulate_from_plan
from repro.sim.machine import build_machine, build_mee_machine
from repro.sim.parallel import (
    ParallelSweepRunner,
    SweepCell,
    stream_spec_for,
)
from repro.sim.plan import MetadataPlan, compile_metadata_plan
from repro.sim.replay import compile_boundary_stream
from repro.sim.runner import run_protocol_sweep
from repro.util.units import MB
from repro.workloads.registry import (
    compiled_cache_clear,
    compiled_cache_size,
    materialize_compiled,
    materialize_trace,
    profile_spec,
)


@pytest.fixture(autouse=True)
def _clean_caches():
    compiled_cache_clear()
    yield
    compiled_cache_clear()


def machine_tree_state(machine):
    tree = machine.mee.tree
    if tree is None:
        return None
    tree.materialize_all()
    region = MetadataRegion.TREE
    return (
        tree.root_register,
        {key: tree.backend.read(region, key) for key in tree.backend.keys(region)},
    )


class TestPlanBitIdentity:
    """Every registered protocol, both BMT disciplines, real crypto:
    the plan-driven replay into an MEE-only machine must end in exactly
    the ``simulate()`` oracle's state — timing result and persisted
    tree bytes alike."""

    @pytest.mark.parametrize("integrity_mode", ["eager", "lazy"])
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_plan_matches_direct(self, small_config, protocol, integrity_mode):
        trace = materialize_trace(profile_spec("parsec", "blackscholes", 600, 7))
        modified = protocol_uses_modified_os(protocol)

        direct_machine = build_machine(
            small_config, protocol, functional=True,
            seed=7, integrity_mode=integrity_mode,
        )
        direct = simulate(direct_machine, trace, seed=7)

        stream = compile_boundary_stream(
            trace, small_config, seed=7, modified_os=modified
        )
        plan = compile_metadata_plan(stream, small_config)
        plan_machine = build_mee_machine(
            small_config, protocol, functional=True,
            integrity_mode=integrity_mode,
        )
        planned = simulate_from_plan(stream, plan, plan_machine)

        assert planned == direct
        assert machine_tree_state(plan_machine) == machine_tree_state(
            direct_machine
        )

    def test_plan_matches_direct_timing_only(self, small_config):
        """Timing-only machines (no functional crypto) on the
        pointer-chasing profile, one compiled pair for every protocol."""
        trace = materialize_trace(profile_spec("parsec", "canneal", 800, 7))
        stream = compile_boundary_stream(trace, small_config, seed=7)
        plan = compile_metadata_plan(stream, small_config)
        for protocol in ("volatile", "strict", "amnt"):
            direct = simulate(
                build_machine(small_config, protocol, seed=7), trace, seed=7
            )
            planned = simulate_from_plan(
                stream, plan, build_mee_machine(small_config, protocol)
            )
            assert planned == direct, protocol


GEOMETRY_CHOICES = {
    # (page_bytes, block_bytes) pairs; counters_per_block follows.
    "page_block": [(4096, 64), (2048, 64), (1024, 32), (4096, 128)],
    "arity": [4, 8, 16],
    "capacity_mb": [16, 64, 256],
}


def _random_geometry_config(rng):
    page_bytes, block_bytes = rng.choice(GEOMETRY_CHOICES["page_block"])
    base = default_config(
        capacity_bytes=rng.choice(GEOMETRY_CHOICES["capacity_mb"]) * MB
    )
    return replace(
        base,
        security=replace(
            base.security,
            block_bytes=block_bytes,
            page_bytes=page_bytes,
            counters_per_block=page_bytes // block_bytes,
            tree_arity=rng.choice(GEOMETRY_CHOICES["arity"]),
        ),
    )


class TestPlanContentsProperty:
    """The property test: every plan record must be the very record the
    resolver holds for its address, and its contents must equal the
    values recomputed from the address and the tree geometry — across
    randomized line sizes, arities, counter ratios, and footprints."""

    @pytest.mark.parametrize("seed", range(6))
    def test_plan_columns_match_recomputation(self, seed, monkeypatch):
        rng = random.Random(seed)
        config = _random_geometry_config(rng)
        accesses = rng.choice([300, 700, 1200])
        trace = materialize_trace(
            profile_spec("parsec", "bodytrack", accesses, seed)
        )
        stream = compile_boundary_stream(trace, config, seed=seed)

        resolvers = []

        class CapturingResolver(RecordResolver):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                resolvers.append(self)

        monkeypatch.setattr(plan_module, "RecordResolver", CapturingResolver)
        plan = compile_metadata_plan(stream, config)
        (resolver,) = resolvers

        geometry = TreeGeometry.from_config(config)
        space = AddressSpace(
            config.pcm.capacity_bytes,
            block_bytes=config.security.block_bytes,
            page_bytes=config.security.page_bytes,
        )
        block_shift = space._block_shift
        page_shift = space._page_shift

        assert len(plan) == len(stream.addr)
        for addr, record in zip(stream.addr, plan.records):
            assert record is resolver.record(addr)
            counter = addr >> page_shift
            hline = (addr >> block_shift) // MACS_PER_LINE
            ctr_key, ctr_mix, hkey, hmac_mix, triples, path, rec_counter = (
                record
            )
            expected_path = geometry.ancestors_of_counter(counter)
            assert rec_counter == counter
            assert ctr_key == counter_key(counter)
            assert ctr_mix == mix_of(ctr_key)
            assert hkey == hmac_key(hline)
            assert hmac_mix == mix_of(hkey)
            assert path == expected_path
            assert [t[0] for t in triples] == expected_path
            for node, key, mix in triples:
                assert key == node_key(*node)
                assert mix == mix_of(key)

    def test_sibling_counters_share_one_path_object(self, small_config):
        trace = materialize_trace(profile_spec("parsec", "canneal", 2000, 7))
        stream = compile_boundary_stream(trace, small_config, seed=7)
        plan = compile_metadata_plan(stream, small_config)
        by_head = {}
        for record in plan.records:
            triples, path = record[4], record[5]
            head = path[0]
            if head in by_head:
                assert by_head[head][0] is path
                assert by_head[head][1] is triples
            else:
                by_head[head] = (path, triples)
        assert len(by_head) < len({record[6] for record in plan.records})


class TestKernelProbe:
    """The MEE kernel's metadata-cache probe must follow the reference
    LRU semantics of :meth:`SetAssociativeCache.lookup` /
    :meth:`~SetAssociativeCache.insert`: same hits, fills, victims,
    dirty bits and per-set LRU order, on random read/write sequences."""

    @settings(max_examples=60, deadline=None)
    @given(
        associativity=st.sampled_from([1, 2, 4]),
        events=st.lists(
            st.tuples(
                st.integers(0, 511), st.integers(0, 63), st.booleans()
            ),
            min_size=1,
            max_size=200,
        ),
    )
    def test_probe_matches_lookup_insert(self, associativity, events):
        base = default_config(capacity_bytes=64 * MB)
        config = replace(
            base,
            metadata_cache=MetadataCacheConfig(
                capacity_bytes=1024, associativity=associativity
            ),
        )
        mee = MemoryEncryptionEngine(config, make_protocol("volatile", config))
        md = config.metadata_cache
        model = build_cache(
            md.capacity_bytes, md.line_bytes, md.associativity, name="mdcache"
        )
        writebacks = 0

        def reference(key, dirty):
            nonlocal writebacks
            if model.lookup(key):
                if dirty:
                    model.mark_dirty(key)
                return True
            victim = model.insert(key, dirty)
            if victim is not None and victim.dirty:
                writebacks += 1
            return False

        page_bytes = config.security.page_bytes
        block_bytes = config.security.block_bytes
        for page, block, is_write in events:
            paddr = page * page_bytes + block * block_bytes
            hline = (paddr // block_bytes) // MACS_PER_LINE
            path = mee.geometry.ancestors_of_counter(page)
            if is_write:
                mee.write_block(paddr)
                reference(counter_key(page), True)
                reference(hmac_key(hline), True)
                for node in path:
                    reference(node_key(*node), True)
            else:
                mee.read_block(paddr)
                reference(counter_key(page), False)
                for node in path:
                    if reference(node_key(*node), False):
                        break
                reference(hmac_key(hline), False)

        def contents(cache):
            return [list(bucket.items()) for bucket in cache._sets]

        assert contents(mee.mdcache._cache) == contents(model)
        assert mee.mdcache.stats.snapshot() == model.stats.snapshot()
        assert mee.stats.get("metadata_writebacks") == writebacks


class TestPlanCache:
    """The compiled-pair cache: one (stream, plan) per stream spec."""

    def test_same_spec_returns_same_object(self, small_config):
        spec = stream_spec_for(
            SweepCell(
                protocol="strict",
                trace=profile_spec("parsec", "blackscholes", 400, 7),
                seed=7,
            ),
            small_config,
        )
        first = materialize_compiled(spec, small_config)
        second = materialize_compiled(spec, small_config)
        assert isinstance(first[1], MetadataPlan)
        assert first is second
        assert compiled_cache_size() == 1

    def test_geometry_change_forces_recompile(self, small_config):
        cell = SweepCell(
            protocol="strict",
            trace=profile_spec("parsec", "blackscholes", 400, 7),
            seed=7,
        )
        bigger = default_config(
            capacity_bytes=small_config.pcm.capacity_bytes * 4
        )
        base_spec = stream_spec_for(cell, small_config)
        resized_spec = stream_spec_for(cell, bigger)
        assert base_spec != resized_spec
        first = materialize_compiled(base_spec, small_config)
        second = materialize_compiled(resized_spec, bigger)
        assert first[1] is not second[1]
        assert compiled_cache_size() == 2

    def test_metadata_cache_change_shares_the_plan(self, small_config):
        """A config differing only in metadata-cache capacity maps to
        the same spec — the plan never depends on cache shape."""
        cell = SweepCell(
            protocol="strict",
            trace=profile_spec("parsec", "blackscholes", 400, 7),
            seed=7,
        )
        resized_cache = replace(
            small_config,
            metadata_cache=replace(
                small_config.metadata_cache,
                capacity_bytes=small_config.metadata_cache.capacity_bytes * 2,
            ),
        )
        base_spec = stream_spec_for(cell, small_config)
        other_spec = stream_spec_for(cell, resized_cache)
        assert base_spec == other_spec
        first = materialize_compiled(base_spec, small_config)
        second = materialize_compiled(other_spec, resized_cache)
        assert first[1] is second[1]
        assert compiled_cache_size() == 1


class TestSweepPaths:
    def test_run_protocol_sweep_plan_matches_direct(self, small_config):
        """A raw trace (literal spec) through the sweep, against the
        oracle on the same trace."""
        trace = materialize_trace(profile_spec("parsec", "bodytrack", 800, 7))
        protocols = ("volatile", "strict", "amnt", "amnt++")
        planned = run_protocol_sweep(trace, small_config, protocols, seed=7)
        for name in protocols:
            direct = simulate(
                build_machine(small_config, name, seed=7), trace, seed=7
            )
            assert planned[name] == direct, name

    def test_parallel_plan_matches_serial_direct(self, small_config):
        cells = [
            SweepCell(
                protocol=name,
                trace=profile_spec("parsec", "bodytrack", 800, 7),
                seed=7,
            )
            for name in ("volatile", "strict", "amnt", "amnt++")
        ]
        parallel = ParallelSweepRunner(workers=2).run(cells, small_config)
        serial = [direct_cell(cell, small_config) for cell in cells]
        assert parallel == serial

    def test_fault_campaigns_stay_unplanned(self):
        """Fault cells go through drive_memory_boundary, never the
        planned replay — the crash oracles need live per-access state."""
        import inspect

        from repro.faults import campaign

        source = inspect.getsource(campaign)
        assert "simulate_from_plan" not in source
