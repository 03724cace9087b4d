"""Crash injection and the Table 4 analytic recovery model."""

from dataclasses import replace

import pytest

from repro.config import default_config
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.core.recovery import (
    TABLE4_MEMORY_SIZES,
    CrashInjector,
    RecoveryAnalysis,
    RecoveryOutcome,
)
from repro.errors import RecoveryError
from repro.util.units import MB, TB


@pytest.fixture
def config():
    return default_config(capacity_bytes=64 * MB)


class TestCrashInjector:
    def test_requires_functional_engine(self, config):
        mee = MemoryEncryptionEngine(config, make_protocol("leaf", config))
        with pytest.raises(RecoveryError):
            CrashInjector(mee)

    @pytest.mark.parametrize(
        "protocol", ["strict", "leaf", "osiris", "anubis", "bmf", "amnt"]
    )
    def test_every_consistent_protocol_recovers(self, config, protocol):
        mee = MemoryEncryptionEngine(
            config, make_protocol(protocol, config), functional=True
        )
        payloads = {}
        for i in range(30):
            addr = (i * 7) % 16 * 4096 + (i % 3) * 64
            payloads[addr] = bytes([i + 1]) * 64
            mee.write_block(addr, data=payloads[addr])
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok, outcome.detail
        for addr, payload in payloads.items():
            assert mee.read_block_data(addr) == payload

    @pytest.mark.parametrize("arity", [2, 4])
    @pytest.mark.parametrize("protocol", ["leaf", "osiris", "anubis", "amnt"])
    def test_narrow_arity_trees_recover(self, config, protocol, arity):
        config = replace(config, security=replace(config.security, tree_arity=arity))
        mee = MemoryEncryptionEngine(
            config, make_protocol(protocol, config), functional=True
        )
        for i in range(20):
            mee.write_block((i * 5) % 16 * 4096, data=bytes([i + 1]) * 64)
        outcome = CrashInjector(mee).crash_and_recover()
        assert outcome.ok, outcome.detail

    def test_volatile_protocol_cannot_recover(self, config):
        mee = MemoryEncryptionEngine(
            config, make_protocol("volatile", config), functional=True
        )
        mee.write_block(0, data=b"\x01" * 64)
        outcome = CrashInjector(mee).crash_and_recover()
        assert not outcome.ok

    def test_outcome_truthiness(self):
        assert RecoveryOutcome("x", True, 0)
        assert not RecoveryOutcome("x", False, 0)

    def test_double_crash_recover_cycles(self, config):
        """The system survives repeated crash/recover cycles."""
        mee = MemoryEncryptionEngine(
            config, make_protocol("amnt", config), functional=True
        )
        injector = CrashInjector(mee)
        for round_number in range(3):
            payload = bytes([round_number + 1]) * 64
            for _ in range(70):  # past the selection interval
                mee.write_block(0, data=payload)
            assert injector.crash_and_recover().ok
            assert mee.read_block_data(0) == payload


class TestRecoveryAnalysis:
    @pytest.fixture
    def analysis(self):
        return RecoveryAnalysis(default_config())

    def test_table4_leaf_row(self, analysis):
        # Paper: 6,222.21 / 49,777.78 / 398,222.21 ms.
        assert analysis.recovery_ms("leaf", 2 * TB) == pytest.approx(
            6222.21, rel=1e-4
        )
        assert analysis.recovery_ms("leaf", 16 * TB) == pytest.approx(
            49777.78, rel=1e-4
        )
        assert analysis.recovery_ms("leaf", 128 * TB) == pytest.approx(
            398222.21, rel=1e-4
        )

    def test_table4_strict_and_bmf_rows_are_zero(self, analysis):
        for protocol in ("strict", "bmf"):
            for memory in TABLE4_MEMORY_SIZES:
                assert analysis.recovery_ms(protocol, memory) == 0.0

    def test_table4_anubis_row_fixed(self, analysis):
        values = {
            analysis.recovery_ms("anubis", memory)
            for memory in TABLE4_MEMORY_SIZES
        }
        assert len(values) == 1
        assert values.pop() == pytest.approx(1.30, abs=0.01)

    def test_table4_amnt_rows(self, analysis):
        # AMNT L3, 2 TB: paper reports 97.22 ms.
        assert analysis.recovery_ms("amnt", 2 * TB, subtree_level=3) == (
            pytest.approx(97.22, rel=1e-3)
        )
        assert analysis.recovery_ms("amnt", 2 * TB, subtree_level=4) == (
            pytest.approx(12.15, rel=1e-2)
        )

    def test_table4_osiris_row(self, analysis):
        # Paper: 50,666.67 ms at 2 TB (~8.1x leaf).
        measured = analysis.recovery_ms("osiris", 2 * TB)
        assert measured == pytest.approx(50666.67, rel=0.05)

    def test_stale_fractions(self, analysis):
        assert analysis.stale_fraction("leaf") == 1.0
        assert analysis.stale_fraction("strict") == 0.0
        assert analysis.stale_fraction("amnt", subtree_level=2) == (
            pytest.approx(0.125)
        )
        assert analysis.stale_fraction("amnt", subtree_level=3) == (
            pytest.approx(1 / 64)
        )

    def test_table4_structure(self, analysis):
        table = analysis.table4()
        labels = [row["protocol"] for row in table]
        assert "AMNT L3" in labels
        assert "leaf" in labels
        for row in table:
            assert "2.00TB" in row
            assert "stale_fraction" in row
