"""Per-core private caches in front of the shared LLC.

The paper's multiprogram configuration gives each core a private L2
(128 kB) beneath a shared L3; the figure harnesses in this reproduction
fold the private levels into the LLC (the protocols only see
LLC-to-memory traffic, and all results are normalized). For studies
where the private/shared split matters — cache-contention questions,
per-core traffic attribution — this module adds that layer explicitly.

:class:`PrivateCacheLayer` holds one write-back, write-allocate cache
per pid. A reference first probes its pid's private cache; private
misses fill from the shared LLC, and private dirty victims write *into*
the shared LLC (marking the line dirty there), so data reaches memory
only via shared-LLC evictions and CLWB+fence persists — the same place
the MEE sits.

:func:`compile_multicore_stream` walks a trace through those caches
into a :class:`~repro.sim.replay.BoundaryStream`;
:func:`simulate_multicore` replays it through the engine's one event
loop (:func:`repro.sim.engine.replay_stream`), exactly as
:func:`repro.sim.engine.simulate` replays the one-level walk.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.cache import build_cache
from repro.config import DataCacheConfig
from repro.core.mee import RecordResolver
from repro.mem.address import AddressSpace
from repro.sim.engine import replay_stream
from repro.sim.machine import Machine
from repro.sim.replay import (
    EVENT_FILL,
    EVENT_PERSIST,
    EVENT_WRITEBACK,
    BoundaryStream,
    trace_columns,
)
from repro.sim.results import SimulationResult
from repro.util.rng import Seed, make_rng
from repro.workloads.trace import Trace


class PrivateCacheLayer:
    """One private write-back cache per core (pid)."""

    def __init__(
        self,
        config: DataCacheConfig,
        address_space: AddressSpace,
    ) -> None:
        self.config = config
        self.address_space = address_space
        self._caches: Dict[int, object] = {}

    def _cache_for(self, pid: int):
        cache = self._caches.get(pid)
        if cache is None:
            cache = build_cache(
                self.config.capacity_bytes,
                self.config.line_bytes,
                self.config.associativity,
                name=f"l2.core{pid}",
                set_of=lambda key: key,
            )
            self._caches[pid] = cache
        return cache

    def access(self, pid: int, paddr: int, is_write: bool):
        """Probe the core's private cache.

        Returns ``(hit, fill_block, dirty_victims)`` where
        ``fill_block`` is the block to request from the shared level on
        a miss and ``dirty_victims`` are blocks to write into it.
        """
        cache = self._cache_for(pid)
        block = self.address_space.block_index(paddr)
        if cache.lookup(block):
            if is_write:
                cache.mark_dirty(block)
            return True, None, ()
        victim = cache.insert(block, dirty=is_write)
        victims = (victim.key,) if victim is not None and victim.dirty else ()
        return False, block, victims

    def flush_block(self, pid: int, paddr: int) -> Optional[int]:
        """CLWB-style flush of one line in the core's private cache;
        returns the block if it was dirty (it is now clean)."""
        cache = self._cache_for(pid)
        block = self.address_space.block_index(paddr)
        if cache.is_dirty(block):
            cache.clean(block)
            return block
        return None

    def hit_rate(self, pid: int) -> float:
        return self._cache_for(pid).hit_rate()

    def misses(self) -> int:
        """Private misses over all cores: the references that reached
        the shared level."""
        caches = self._caches.values()
        return sum(cache.stats.get("misses") for cache in caches)

    def cores(self) -> List[int]:
        return sorted(self._caches)


def compile_multicore_stream(
    trace: Trace,
    llc,
    mm,
    private: PrivateCacheLayer,
    block_bytes: int,
    seed: Seed = 0,
    churn_interval: int = 16384,
) -> BoundaryStream:
    """The multicore counterpart of
    :func:`repro.sim.replay.walk_data_side`: walk ``trace`` through
    ``private``, the shared LLC and ``mm``; return its boundary stream.

    On a private miss, the dirty private victims are written into the
    LLC, then the block is read from it; each LLC probe records its
    fill and dirty victims. A flush-tagged write (CLWB + fence) cleans
    the line at both levels and records a persist if either held it
    dirty. ``mm`` churns every ``churn_interval`` accesses, hit or miss.
    """
    rng = make_rng(f"{seed}/mc-engine/{trace.name}")
    stream = BoundaryStream(trace.name)
    kind_append = stream.kind.append
    addr_append = stream.addr.append
    translate = mm.translate
    private_access = private.access
    private_flush_block = private.flush_block
    llc_access = llc.access
    llc_flush_block = llc.flush_block
    churn = mm.churn

    vaddrs, pids, thinks, flag_col = trace_columns(trace)
    position = 0
    for vaddr, pid, flags in zip(vaddrs, pids, flag_col):
        position += 1
        is_write = flags & 1
        paddr = translate(pid, vaddr)
        hit, fill_block, victims = private_access(pid, paddr, is_write)
        if not hit:
            requests = [(victim, True) for victim in victims]
            requests.append((fill_block, False))
            for block, dirty in requests:
                traffic = llc_access(block * block_bytes, dirty)
                if traffic.fill_block is not None:
                    kind_append(EVENT_FILL)
                    addr_append(traffic.fill_block * block_bytes)
                for evicted in traffic.writeback_blocks:
                    kind_append(EVENT_WRITEBACK)
                    addr_append(evicted * block_bytes)
        if is_write and flags & 2:
            # CLWB + fence cleans the line at both levels; it reaches
            # memory if either level held it dirty.
            private_block = private_flush_block(pid, paddr)
            llc_block = llc_flush_block(paddr)
            flushed = llc_block if private_block is None else private_block
            if flushed is not None:
                kind_append(EVENT_PERSIST)
                addr_append(flushed * block_bytes)
        if churn_interval and position % churn_interval == 0:
            churn(rng)

    stream.close(position, thinks, llc, mm)
    return stream


def simulate_multicore(
    machine: Machine,
    trace: Trace,
    private_config: Optional[DataCacheConfig] = None,
    seed: Seed = 0,
    churn_interval: int = 16384,
) -> SimulationResult:
    """Run ``trace`` with per-core private caches beneath the LLC.

    The shared LLC, memory manager and MEE come from ``machine``;
    private caches use ``private_config`` (default: the paper's 128 kB
    multiprogram L2 with a 12-cycle latency). Every access pays the
    private latency, and every private miss the LLC latency too.
    """
    if private_config is None:
        private_config = DataCacheConfig(
            capacity_bytes=128 * 1024,
            associativity=8,
            access_latency_cycles=12,
        )
    mee = machine.mee
    private = PrivateCacheLayer(private_config, mee.address_space)
    stream = compile_multicore_stream(
        trace, machine.llc, machine.mm, private,
        machine.config.security.block_bytes, seed, churn_interval,
    )
    cycles = (
        stream.think_total
        + stream.accesses * private_config.access_latency_cycles
        + private.misses() * machine.config.llc.access_latency_cycles
    )
    resolver = RecordResolver(mee.geometry, mee.address_space)
    return replay_stream(stream, mee, map(resolver.record, stream.addr), cycles)
