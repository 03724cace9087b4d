"""SCM endurance accounting."""

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.mem.backend import MetadataRegion
from repro.mem.wear import WearTracker, attach_wear_tracking
from repro.sim.engine import simulate
from repro.sim.machine import build_machine
from repro.util.units import MB
from repro.workloads.storage import generate_storage_trace, storage_profile


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


def tracked_engine(config, protocol):
    mee = MemoryEncryptionEngine(config, make_protocol(protocol, config))
    return mee, attach_wear_tracking(mee)


class TestTracker:
    def test_counts_per_line(self):
        tracker = WearTracker()
        tracker.record(MetadataRegion.TREE, (2, 0))
        tracker.record(MetadataRegion.TREE, (2, 0))
        tracker.record(MetadataRegion.DATA, 5)
        report = tracker.report()
        assert report.writes_by_region == {"tree": 2, "data": 1}
        assert report.hottest_line_writes == 2
        assert report.hottest_line == ("tree", (2, 0))
        assert report.distinct_lines_written == 2

    def test_empty_report(self):
        report = WearTracker().report()
        assert report.total_writes == 0
        assert report.write_amplification() is None
        assert report.hotspot_factor() == 0.0

    def test_hottest_lines_listing(self):
        tracker = WearTracker()
        for _ in range(3):
            tracker.record(MetadataRegion.COUNTERS, 7)
        tracker.record(MetadataRegion.COUNTERS, 8)
        top = tracker.hottest_lines(top=1)
        assert top == [(("counters", 7), 3)]


class TestProtocolWearProfiles:
    def hammer(self, mee, writes=200, pages=16):
        for i in range(writes):
            mee.write_block((i % pages) * 4096)

    def test_strict_concentrates_wear_on_upper_tree(self, config):
        mee, tracker = tracked_engine(config, "strict")
        self.hammer(mee)
        report = tracker.report()
        # The hottest line is a tree node rewritten on every write...
        assert report.hottest_line[0] == "tree"
        assert report.hottest_line_writes == 200
        # ...a severe wear hotspot.
        assert report.hotspot_factor() > 3.0

    def test_leaf_spreads_wear(self, config):
        strict_mee, strict_tracker = tracked_engine(config, "strict")
        leaf_mee, leaf_tracker = tracked_engine(config, "leaf")
        self.hammer(strict_mee)
        self.hammer(leaf_mee)
        strict_report = strict_tracker.report()
        leaf_report = leaf_tracker.report()
        assert (
            leaf_report.write_amplification()
            < strict_report.write_amplification()
        )
        assert leaf_report.total_writes < strict_report.total_writes

    def test_amnt_wear_tracks_leaf_inside_subtree(self, config):
        amnt_mee, amnt_tracker = tracked_engine(config, "amnt")
        leaf_mee, leaf_tracker = tracked_engine(config, "leaf")
        self.hammer(amnt_mee, writes=400)
        self.hammer(leaf_mee, writes=400)
        amnt_amp = amnt_tracker.report().write_amplification()
        leaf_amp = leaf_tracker.report().write_amplification()
        # The first selection interval is strict; after that AMNT pays
        # leaf-level amplification, so totals converge toward leaf's.
        assert amnt_amp < 2 * leaf_amp

    def test_lifetime_math(self, config):
        mee, tracker = tracked_engine(config, "strict")
        self.hammer(mee, writes=100)
        report = tracker.report()
        assert report.lifetime_fraction_consumed(endurance=1000) == (
            pytest.approx(0.1)
        )

    def test_write_amplification_matches_result_metric(self, config):
        """The tracker's amplification agrees with the NVM-stats-based
        metric on SimulationResult."""
        mee, tracker = tracked_engine(config, "strict")
        self.hammer(mee, writes=150)
        report = tracker.report()
        data = mee.nvm.stats.get("writes.data")
        total = mee.nvm.stats.get("writes.total")
        assert report.write_amplification() == pytest.approx(
            (total - data) / data
        )


class TestFencedWrites:
    """Tracking must not change a write: a fenced write (``simulate()``
    issues one per flush-tagged store) costs the same with a tracker
    attached, and its data line is still counted."""

    def test_wrapper_forwards_fenced(self, config):
        plain = MemoryEncryptionEngine(config, make_protocol("leaf", config))
        mee, tracker = tracked_engine(config, "leaf")
        assert mee.write_block(0, fenced=True) == plain.write_block(
            0, fenced=True
        )
        assert tracker.report().writes_by_region["data"] == 1

    def test_simulate_flush_tagged_trace_with_tracking(self, config):
        trace = generate_storage_trace(
            storage_profile("kvstore"), seed=3, accesses=2000
        )
        expected = simulate(build_machine(config, "leaf", seed=3), trace, seed=3)
        machine = build_machine(config, "leaf", seed=3)
        tracker = attach_wear_tracking(machine.mee)
        assert simulate(machine, trace, seed=3) == expected
        assert (
            tracker.report().writes_by_region["data"]
            == expected.nvm_stats["nvm.writes.data"]
        )
