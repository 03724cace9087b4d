"""Boundary-event compilation: the sweep executor == direct simulation.

Every sweep cell simulates the protocol-agnostic data side once per
stream group (repro.sim.replay), compiles its metadata plan, and
replays both into the cell's MEE. The entire correctness claim is
*bit-identity* with the ``simulate()`` oracle, so these tests compare
full :class:`SimulationResult` objects, never summaries (the functional
runs' persisted tree bytes are pinned by ``tests/test_golden.py``).
"""

from dataclasses import replace

import pytest

from repro.bench.perf import direct_cell, reference_cells
from repro.config import default_config
from repro.core.protocol import protocol_names
from repro.sim.parallel import (
    ParallelSweepRunner,
    SweepCell,
    run_cell,
    stream_spec_for,
)
from repro.sim.plan import compile_metadata_plan
from repro.sim.replay import (
    EVENT_FILL,
    EVENT_PERSIST,
    EVENT_WRITEBACK,
    BoundaryStream,
    compile_boundary_stream,
)
from repro.sim.runner import run_protocol_sweep
from repro.util.units import MB
from repro.workloads.registry import (
    boundary_stream_spec,
    compiled_cache_clear,
    compiled_cache_size,
    materialize_compiled,
    materialize_trace,
    profile_spec,
)
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def _clean_compiled_cache():
    compiled_cache_clear()
    yield
    compiled_cache_clear()


class TestFunctionalEquivalence:
    """Every registered protocol, both BMT disciplines, real crypto:
    a sweep cell run by the executor must equal the ``simulate()``
    oracle on a full machine."""

    @pytest.mark.parametrize("integrity_mode", ["eager", "lazy"])
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_replay_matches_direct(self, small_config, protocol, integrity_mode):
        cell = SweepCell(
            protocol=protocol,
            trace=profile_spec("parsec", "blackscholes", 600, 7),
            seed=7,
            functional=True,
            integrity_mode=integrity_mode,
        )
        assert run_cell(cell, small_config) == direct_cell(cell, small_config)


class TestStreamContents:
    def test_event_kinds_and_flush_tail(self, small_config):
        trace = materialize_trace(profile_spec("parsec", "canneal", 600, 7))
        stream = compile_boundary_stream(trace, small_config, seed=7)
        assert isinstance(stream, BoundaryStream)
        assert stream.accesses == 600
        assert set(stream.kind) <= {EVENT_FILL, EVENT_WRITEBACK, EVENT_PERSIST}
        # No end-of-run flush tail: the stream of the trace minus its
        # last access is a prefix of this one, and what follows it is
        # that access's own traffic (a fill, a dirty victim, a persist).
        head = Trace(trace.name, list(trace.accesses)[:-1])
        prefix = compile_boundary_stream(head, small_config, seed=7)
        cut = len(prefix)
        assert stream.kind[:cut] == prefix.kind
        assert stream.addr[:cut] == prefix.addr
        assert len(stream) - cut <= 3

    def test_modified_os_changes_placement(self, small_config):
        """amnt++'s allocator restructuring must show up in the compiled
        physical addresses — one stream per OS variant, never shared."""
        trace = materialize_trace(profile_spec("parsec", "canneal", 2000, 7))
        stock = compile_boundary_stream(
            trace, small_config, seed=7, modified_os=False
        )
        modified = compile_boundary_stream(
            trace, small_config, seed=7, modified_os=True
        )
        assert list(stock.addr) != list(modified.addr)


class TestStreamCache:
    def test_same_spec_returns_same_object(self, small_config):
        spec = boundary_stream_spec(
            profile_spec("parsec", "blackscholes", 400, 7), small_config, seed=7
        )
        first = materialize_compiled(spec, small_config)
        second = materialize_compiled(spec, small_config)
        assert first is second
        assert compiled_cache_size() == 1

    def test_geometry_change_forces_recompile(self, small_config):
        trace_spec = profile_spec("parsec", "blackscholes", 400, 7)
        base = boundary_stream_spec(trace_spec, small_config, seed=7)
        bigger_llc = replace(
            small_config,
            llc=replace(
                small_config.llc,
                capacity_bytes=small_config.llc.capacity_bytes * 2,
            ),
        )
        resized = boundary_stream_spec(trace_spec, bigger_llc, seed=7)
        assert resized != base
        first = materialize_compiled(base, small_config)
        second = materialize_compiled(resized, bigger_llc)
        assert first is not second
        assert compiled_cache_size() == 2

    def test_metadata_geometry_is_not_in_the_key(self, small_config):
        """Configs differing only on the MEE side share one stream —
        the data side cannot observe the metadata-cache shape."""
        trace_spec = profile_spec("parsec", "blackscholes", 400, 7)
        other = replace(
            small_config,
            metadata_cache=replace(
                small_config.metadata_cache,
                capacity_bytes=small_config.metadata_cache.capacity_bytes * 2,
            ),
        )
        assert boundary_stream_spec(
            trace_spec, small_config, seed=7
        ) == boundary_stream_spec(trace_spec, other, seed=7)

    def test_stock_os_key_ignores_subtree_level(self):
        """Only the modified OS reads the subtree level (its region
        map), so stock-OS cells at levels 2-7 share one compiled pair
        while amnt++ compiles one per level."""
        config = default_config()
        trace_spec = profile_spec("parsec", "blackscholes", 400, 7)

        def specs(protocol):
            return {
                stream_spec_for(
                    SweepCell(
                        protocol=protocol,
                        trace=trace_spec,
                        seed=7,
                        config=config.with_amnt(subtree_level=level),
                    ),
                    config,
                )
                for level in range(2, 8)
            }

        assert len(specs("volatile") | specs("amnt")) == 1
        assert len(specs("amnt++")) == 6


class TestResidency:
    """The executor compiles each stream group once and keeps at most
    COMPILED_CACHE_CAPACITY pairs alive — what holds a figure grid's
    peak memory flat as the grid grows."""

    def test_grid_compiles_each_spec_once_and_stays_bounded(
        self, small_config, monkeypatch
    ):
        import repro.sim.plan
        import repro.sim.replay
        from repro.workloads.registry import COMPILED_CACHE_CAPACITY

        compiled = {"stream": [], "plan": 0}
        sizes = []
        real_stream = repro.sim.replay.compile_boundary_stream
        real_plan = repro.sim.plan.compile_metadata_plan

        def count_stream(trace, config, **kwargs):
            compiled["stream"].append((trace.name, kwargs["modified_os"]))
            sizes.append(compiled_cache_size())
            return real_stream(trace, config, **kwargs)

        def count_plan(stream, config):
            compiled["plan"] += 1
            return real_plan(stream, config)

        monkeypatch.setattr(
            repro.sim.replay, "compile_boundary_stream", count_stream
        )
        monkeypatch.setattr(repro.sim.plan, "compile_metadata_plan", count_plan)

        protocols = ("volatile", "leaf", "amnt++", "strict", "amnt")
        cells = [
            SweepCell(
                protocol=protocol,
                trace=profile_spec("parsec", name, 400, 7),
                seed=7,
            )
            for name in ("blackscholes", "bodytrack", "canneal")
            for protocol in protocols
        ]
        results = ParallelSweepRunner(workers=1).run(cells, small_config)
        sizes.append(compiled_cache_size())

        distinct = {stream_spec_for(cell, small_config) for cell in cells}
        assert len(distinct) == 6  # 3 traces x {stock, modified} OS
        assert len(compiled["stream"]) == len(set(compiled["stream"])) == 6
        assert compiled["plan"] == 6
        assert max(sizes) <= COMPILED_CACHE_CAPACITY
        assert [r.protocol for r in results] == [c.protocol for c in cells]


class TestSweepPaths:
    def test_run_protocol_sweep_replay_default_matches_direct(self, small_config):
        trace_spec = profile_spec("parsec", "bodytrack", 800, 7)
        protocols = ("volatile", "strict", "amnt", "amnt++")
        swept = run_protocol_sweep(trace_spec, small_config, protocols, seed=7)
        for name in protocols:
            cell = SweepCell(protocol=name, trace=trace_spec, seed=7)
            assert swept[name] == direct_cell(cell, small_config), name

    def test_parallel_replay_matches_serial_direct(self, small_config):
        cells = [
            SweepCell(
                protocol=name,
                trace=profile_spec("parsec", "bodytrack", 800, 7),
                seed=7,
            )
            for name in ("volatile", "strict", "amnt")
        ]
        parallel = ParallelSweepRunner(workers=2).run(cells, small_config)
        serial = [direct_cell(cell, small_config) for cell in cells]
        assert parallel == serial

    @pytest.mark.parametrize("raw_trace", [False, True])
    def test_serial_sweep_validates_cells(self, small_config, raw_trace):
        """A serial sweep runs the same cell validation as the pool, for
        raw traces and specs alike."""
        from repro.errors import ConfigValidationError

        trace = profile_spec("parsec", "bodytrack", 300, 7)
        if raw_trace:
            trace = materialize_trace(trace)
        with pytest.raises(ConfigValidationError) as excinfo:
            run_protocol_sweep(
                trace,
                small_config,
                ("volatile", "amnt"),
                scatter_span_chunks=-3,
                workers=1,
            )
        assert excinfo.value.field == "cell.scatter_span_chunks"

    def test_stream_spec_keys_off_protocol_os_variant(self, small_config):
        trace_spec = profile_spec("parsec", "bodytrack", 800, 7)
        amnt = SweepCell(protocol="amnt", trace=trace_spec, seed=7)
        amntpp = SweepCell(protocol="amnt++", trace=trace_spec, seed=7)
        leaf = SweepCell(protocol="leaf", trace=trace_spec, seed=7)
        assert stream_spec_for(amnt, small_config) == stream_spec_for(
            leaf, small_config
        )
        assert stream_spec_for(amnt, small_config) != stream_spec_for(
            amntpp, small_config
        )


@pytest.mark.slow
class TestReferenceGridProperty:
    """The acceptance property: every cell of the full reference grid
    (3 benchmarks x 6 figure protocols, 20k accesses) run by the sweep
    executor is bit-identical to the ``simulate()`` oracle, in both
    integrity modes."""

    @pytest.mark.parametrize("integrity_mode", ["eager", "lazy"])
    def test_full_grid_bit_identical(self, integrity_mode):
        config = default_config()
        cells = [
            replace(cell, integrity_mode=integrity_mode)
            for cell in reference_cells()
        ]
        assert len(cells) == 18
        swept = ParallelSweepRunner(workers=1).run(cells, config)
        for cell, result in zip(cells, swept):
            assert result == direct_cell(cell, config), (
                f"sweep diverged for {cell.protocol}/{cell.trace.label()}"
            )
