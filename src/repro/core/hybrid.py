"""Hybrid SCM + DRAM secure memory (the paper's §7.3 OMT discussion).

The paper argues AMNT "abstracts well to a hybrid SCM-DRAM machine":
AMNT protects the SCM partition, a traditional (volatile) BMT protects
DRAM, and the only additions are one *volatile* root register for the
DRAM tree and the memory controller knowing the physical partition.

This module realizes that design as two independently rooted secure
memories behind one facade:

* the **DRAM partition** runs ordinary writeback secure memory (the
  ``volatile`` protocol) — crash consistency is meaningless there
  because the *data* does not survive power loss either. Its root
  register is volatile: on a crash the whole partition (data, counters,
  tree) resets to the zeroed boot state, which is exactly what real
  DRAM does.
* the **SCM partition** runs AMNT unchanged: counters and HMACs persist
  with writes, the fast subtree gives hot data leaf persistence, and
  recovery rebuilds one subtree region against the NV register.

Addresses below ``dram_bytes`` are DRAM; the rest are SCM. The facade
routes reads/writes, aggregates statistics, and implements the hybrid
crash semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import SystemConfig
from repro.core.mee import MemoryEncryptionEngine
from repro.core.protocol import make_protocol
from repro.core.recovery import RecoveryOutcome
from repro.errors import AddressError, ConfigError
from repro.util.bitops import is_power_of_two


@dataclass(frozen=True)
class HybridLayout:
    """Physical partition of a hybrid machine."""

    dram_bytes: int
    scm_bytes: int

    def __post_init__(self) -> None:
        for name in ("dram_bytes", "scm_bytes"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigError(f"{name} must be a power of two, got {value}")

    @property
    def total_bytes(self) -> int:
        return self.dram_bytes + self.scm_bytes

    def partition_of(self, addr: int) -> Tuple[str, int]:
        """(device, device-local address) for a global address."""
        if addr < 0 or addr >= self.total_bytes:
            raise AddressError(
                f"address {addr:#x} outside hybrid space "
                f"[0, {self.total_bytes:#x})"
            )
        if addr < self.dram_bytes:
            return ("dram", addr)
        return ("scm", addr - self.dram_bytes)


class HybridSCMDRAMSystem:
    """Two secure memories, one controller: volatile BMT over DRAM,
    AMNT over SCM."""

    def __init__(
        self,
        config: SystemConfig,
        layout: HybridLayout,
        functional: bool = False,
        scm_protocol: str = "amnt",
    ) -> None:
        self.layout = layout
        dram_config = config.with_pcm(capacity_bytes=layout.dram_bytes)
        scm_config = config.with_pcm(capacity_bytes=layout.scm_bytes)
        self.dram = MemoryEncryptionEngine(
            dram_config,
            make_protocol("volatile", dram_config),
            functional=functional,
        )
        self.scm = MemoryEncryptionEngine(
            scm_config,
            make_protocol(scm_protocol, scm_config),
            functional=functional,
        )

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------

    def _route(self, addr: int) -> Tuple[MemoryEncryptionEngine, int]:
        device, local = self.layout.partition_of(addr)
        return (self.dram if device == "dram" else self.scm), local

    def read_block(self, addr: int) -> int:
        engine, local = self._route(addr)
        return engine.read_block(local)

    def read_block_data(self, addr: int) -> bytes:
        engine, local = self._route(addr)
        return engine.read_block_data(local)

    def write_block(
        self, addr: int, data: Optional[bytes] = None, fenced: bool = False
    ) -> int:
        engine, local = self._route(addr)
        return engine.write_block(local, data=data, fenced=fenced)

    def is_scm(self, addr: int) -> bool:
        return self.layout.partition_of(addr)[0] == "scm"

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: the SCM side loses its volatile state; the DRAM
        side loses *everything* — data, counters, tree, and its
        (volatile) root register — returning to the zeroed boot state."""
        self.scm.crash()
        self.dram.crash()
        self._reset_dram_to_boot_state()

    def _reset_dram_to_boot_state(self) -> None:
        if self.dram.functional:
            from repro.crypto.engine import RealCryptoEngine  # noqa: F401
            from repro.integrity.bmt import BonsaiMerkleTree
            from repro.mem.backend import SparseMemory

            self.dram.nvm.backend = SparseMemory()
            self.dram.tree = BonsaiMerkleTree(
                self.dram.geometry, self.dram.engine, self.dram.nvm.backend
            )
            self.dram._volatile_hmacs.clear()
        self.dram.stats.add("boot_resets")

    def recover(self) -> RecoveryOutcome:
        """Hybrid recovery: only the SCM partition has anything to
        recover; DRAM restarted empty."""
        outcome = self.scm.protocol.recover(self.scm.tree)
        return RecoveryOutcome(
            protocol=f"hybrid({outcome.protocol}+volatile-dram)",
            ok=outcome.ok,
            nodes_recomputed=outcome.nodes_recomputed,
            detail=outcome.detail,
        )

    def crash_and_recover(self) -> RecoveryOutcome:
        self.crash()
        return self.recover()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def persist_traffic(self) -> int:
        """All persists come from the SCM side — the design's point."""
        return self.scm.nvm.persists() + self.dram.nvm.persists()

    def extra_register_bytes(self) -> Tuple[int, int]:
        """(non-volatile, volatile) on-chip register bytes.

        The DRAM tree's root register is the paper's "additional
        (volatile) register"; all NV registers belong to the SCM side.
        """
        nonvolatile = self.scm.registers.total_bytes()
        volatile = self.dram.registers.total_bytes()
        return nonvolatile, volatile
