"""Hybrid SCM + DRAM secure memory (§7.3)."""

import pytest

from repro.config import default_config
from repro.core.hybrid import HybridLayout, HybridSCMDRAMSystem
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.errors import AddressError, ConfigError
from repro.util.units import MB


@pytest.fixture
def layout():
    return HybridLayout(dram_bytes=32 * MB, scm_bytes=32 * MB)


@pytest.fixture
def system(layout):
    return HybridSCMDRAMSystem(
        default_config(capacity_bytes=32 * MB), layout, functional=True
    )


def scm_addr(layout, offset=0):
    return layout.dram_bytes + offset


class TestLayout:
    def test_partition_routing(self, layout):
        assert layout.partition_of(0) == ("dram", 0)
        assert layout.partition_of(32 * MB - 1) == ("dram", 32 * MB - 1)
        assert layout.partition_of(32 * MB) == ("scm", 0)

    def test_out_of_range(self, layout):
        with pytest.raises(AddressError):
            layout.partition_of(64 * MB)
        with pytest.raises(AddressError):
            layout.partition_of(-1)

    def test_power_of_two_required(self):
        with pytest.raises(ConfigError):
            HybridLayout(dram_bytes=3 * MB, scm_bytes=32 * MB)

    def test_is_scm(self, system, layout):
        assert not system.is_scm(0)
        assert system.is_scm(scm_addr(layout))


class TestDatapath:
    def test_roundtrip_both_partitions(self, system, layout):
        system.write_block(0, data=b"\x0d" * 64)
        system.write_block(scm_addr(layout), data=b"\x0e" * 64)
        assert system.read_block_data(0) == b"\x0d" * 64
        assert system.read_block_data(scm_addr(layout)) == b"\x0e" * 64

    def test_persists_come_only_from_scm(self, system, layout):
        for i in range(10):
            system.write_block(i * 4096, data=bytes([i]) * 64)
        assert system.persist_traffic() == 0  # DRAM side persists nothing
        system.write_block(scm_addr(layout), data=b"\x01" * 64)
        assert system.persist_traffic() > 0

    def test_independent_trees(self, system, layout):
        """Writing DRAM never touches the SCM root and vice versa."""
        scm_root = system.scm.tree.root_register
        system.write_block(0, data=b"\x01" * 64)
        assert system.scm.tree.root_register == scm_root
        dram_root = system.dram.tree.root_register
        system.write_block(scm_addr(layout), data=b"\x02" * 64)
        assert system.dram.tree.root_register == dram_root


    def test_fenced_write_reaches_the_partition(self, layout):
        config = default_config(capacity_bytes=32 * MB)
        system = HybridSCMDRAMSystem(config, layout)
        bare = MemoryEncryptionEngine(config, make_protocol("amnt", config))
        fenced = system.write_block(scm_addr(layout), fenced=True)
        assert fenced == bare.write_block(0, fenced=True)
        assert fenced > HybridSCMDRAMSystem(config, layout).write_block(
            scm_addr(layout)
        )


class TestCrashSemantics:
    def test_scm_survives_dram_resets(self, system, layout):
        system.write_block(0, data=b"\xaa" * 64)  # DRAM
        interval = system.scm.config.amnt.movement_interval_writes
        for _ in range(interval + 2):  # SCM, subtree settles
            system.write_block(scm_addr(layout), data=b"\xbb" * 64)
        outcome = system.crash_and_recover()
        assert outcome.ok, outcome.detail
        # SCM data recovered and authenticated:
        assert system.read_block_data(scm_addr(layout)) == b"\xbb" * 64
        # DRAM data gone, back to zeroed boot state (and verifiable):
        assert system.read_block_data(0) == bytes(64)

    def test_recovery_label_mentions_both_sides(self, system):
        outcome = system.crash_and_recover()
        assert "volatile-dram" in outcome.protocol

    def test_post_crash_writes_work_on_both_sides(self, system, layout):
        system.crash_and_recover()
        system.write_block(0, data=b"\x11" * 64)
        system.write_block(scm_addr(layout), data=b"\x22" * 64)
        assert system.read_block_data(0) == b"\x11" * 64
        assert system.read_block_data(scm_addr(layout)) == b"\x22" * 64


class TestAlternativeSCMProtocols:
    def test_scm_side_can_run_leaf(self, layout):
        system = HybridSCMDRAMSystem(
            default_config(capacity_bytes=32 * MB),
            layout,
            functional=True,
            scm_protocol="leaf",
        )
        system.write_block(scm_addr(layout), data=b"\x33" * 64)
        outcome = system.crash_and_recover()
        assert outcome.ok
        assert "leaf" in outcome.protocol
        assert system.read_block_data(scm_addr(layout)) == b"\x33" * 64

    def test_scm_side_can_run_strict(self, layout):
        system = HybridSCMDRAMSystem(
            default_config(capacity_bytes=32 * MB),
            layout,
            functional=True,
            scm_protocol="strict",
        )
        system.write_block(scm_addr(layout), data=b"\x44" * 64)
        outcome = system.crash_and_recover()
        assert outcome.ok
        assert outcome.nodes_recomputed == 0


class TestRegisters:
    def test_dram_register_is_volatile_scm_register_nonvolatile(self, system):
        nonvolatile, volatile = system.extra_register_bytes()
        # SCM: global root + AMNT subtree register.
        assert nonvolatile == 128
        # DRAM: its own root register, volatile by design.
        assert volatile == 64
