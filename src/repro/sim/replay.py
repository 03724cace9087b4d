"""Boundary-event compilation: walk the data side once, replay it.

Every protocol in the paper's lineup consumes the same input — the
*memory traffic* that crosses the LLC boundary (fills, dirty victim
writebacks, and explicit CLWB+fence persists). The data-side hierarchy
that produces it (address translation, demand paging, the LLC, page
churn) is protocol-independent for a fixed OS variant.

:func:`walk_data_side` is the one data-side loop: it walks a trace
through an already-built LLC and memory manager and emits a columnar
:class:`BoundaryStream` of every boundary event in program order, plus
the data-side half of the eventual
:class:`~repro.sim.results.SimulationResult`. The stream ends with the
last access's traffic: like the paper's measured region of interest, a
run has no end-of-run cache flush. ``simulate()`` walks its machine's
own data side; :func:`compile_boundary_stream` walks a fresh one, so an
18-cell sweep (3 benchmarks x 6 protocols) walks 3 times and replays
each cached stream into every protocol's MEE (``tests/test_replay.py``
checks replay against ``simulate()``).
:func:`repro.sim.multicore.compile_multicore_stream` is a second
compiler with private per-core caches in front of the LLC. Every
stream is replayed by the same engine loop
(:func:`repro.sim.engine.replay_stream`).

Fault campaigns do not use streams: they drive the MEE directly
(:func:`repro.sim.engine.drive_memory_boundary`, no LLC), because their
crash ordinals count trace accesses, not boundary events, and their
writes carry payloads for the golden shadow copy. The modified-OS
variant (``amnt++``) gets its own stream — physical placement differs
under the AMNT++ allocator, which is the experiment.
"""

from __future__ import annotations

from array import array

from repro.config import SystemConfig
from repro.util.rng import Seed, make_rng
from repro.workloads.trace import ColumnarAccesses, Trace

#: Modeled kernel instructions per demand-paging fault (trap, allocator
#: call, page-table update). Only Table 2's instruction ratios consume
#: this; it is deliberately round.
INSTRUCTIONS_PER_PAGE_FAULT = 500

#: Boundary-event kinds stored in :attr:`BoundaryStream.kind`.
EVENT_FILL = 0  #: LLC miss: read the block through the MEE.
EVENT_WRITEBACK = 1  #: Dirty victim: posted write.
EVENT_PERSIST = 2  #: CLWB + fence: fenced write on the critical path.


class BoundaryStream:
    """The memory-boundary trace of one data-side walk.

    Columnar like :class:`~repro.workloads.trace.ColumnarAccesses`:
    two parallel ``array`` columns (event kind, physical block base)
    instead of per-event objects.

    The scalar fields carry the data-side half of the result (see
    :func:`repro.sim.engine.replay_stream`).
    """

    __slots__ = (
        "name",
        "kind",
        "addr",
        "accesses",
        "think_total",
        "llc_hits",
        "llc_misses",
        "page_faults",
        "os_instructions",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.kind = array("B")
        self.addr = array("q")
        self.accesses = 0
        self.think_total = 0
        self.llc_hits = 0
        self.llc_misses = 0
        self.page_faults = 0
        self.os_instructions = 0

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def app_instructions(self) -> int:
        """Application instructions: think cycles plus one per access."""
        return self.think_total + self.accesses

    def llc_hit_rate(self) -> float:
        total = self.llc_hits + self.llc_misses
        return self.llc_hits / total if total else 0.0

    def close(self, accesses: int, thinks, llc, mm) -> None:
        """Fill in the data-side scalars once the walk has ended."""
        self.accesses = accesses
        self.think_total = sum(thinks)
        self.llc_hits = llc.stats.get("hits")
        self.llc_misses = llc.stats.get("misses")
        self.page_faults = mm.stats.get("page_faults")
        self.os_instructions = (
            mm.allocator.instructions()
            + self.page_faults * INSTRUCTIONS_PER_PAGE_FAULT
        )

    def __repr__(self) -> str:
        return (
            f"BoundaryStream(name={self.name!r}, events={len(self.kind)}, "
            f"accesses={self.accesses})"
        )


def trace_columns(trace: Trace):
    """The trace's raw (vaddr, pid, think, flags) columns, built on the
    fly for a trace whose ``accesses`` is a plain record list."""
    accesses = trace.accesses
    if not isinstance(accesses, ColumnarAccesses):
        accesses = ColumnarAccesses(accesses)
    return accesses.columns()


def walk_data_side(
    trace: Trace,
    llc,
    mm,
    block_bytes: int,
    seed: Seed = 0,
    churn_interval: int = 16384,
    churn_bursts: int = 2,
    churn_pages_per_burst: int = 32,
) -> BoundaryStream:
    """Walk ``trace`` through an already-built LLC and memory manager;
    return its boundary-event stream.

    Per reference: translate (demand paging), probe the LLC, record the
    fill and dirty victims, and for a flush-tagged write (CLWB + fence)
    a persist if the LLC held the line dirty; churn pages every
    ``churn_interval`` accesses.
    """
    rng = make_rng(f"{seed}/engine/{trace.name}")
    stream = BoundaryStream(trace.name)
    kind_append = stream.kind.append
    addr_append = stream.addr.append

    # Once per trace record: hoist the bound methods, iterate the raw
    # columns (flags pack is_write in bit 0 and flush in bit 1).
    translate = mm.translate
    llc_access = llc.access
    llc_flush_block = llc.flush_block
    churn = mm.churn

    vaddrs, pids, thinks, flag_col = trace_columns(trace)
    position = 0
    for vaddr, pid, flags in zip(vaddrs, pids, flag_col):
        position += 1
        is_write = flags & 1
        paddr = translate(pid, vaddr)
        traffic = llc_access(paddr, is_write)
        if traffic.fill_block is not None:
            kind_append(EVENT_FILL)
            addr_append(traffic.fill_block * block_bytes)
        for victim_block in traffic.writeback_blocks:
            kind_append(EVENT_WRITEBACK)
            addr_append(victim_block * block_bytes)
        if is_write and flags & 2:
            flushed_block = llc_flush_block(paddr)
            if flushed_block is not None:
                kind_append(EVENT_PERSIST)
                addr_append(flushed_block * block_bytes)
        if churn_interval and position % churn_interval == 0:
            churn(
                rng, bursts=churn_bursts, pages_per_burst=churn_pages_per_burst
            )

    stream.close(position, thinks, llc, mm)
    return stream


def compile_boundary_stream(
    trace: Trace,
    config: SystemConfig,
    seed: Seed = 0,
    churn_interval: int = 16384,
    churn_bursts: int = 2,
    churn_pages_per_burst: int = 32,
    scatter_span_chunks: int = 0,
    modified_os: bool = False,
    max_order: int = 10,
    reclaim_interval: int = 64,
) -> BoundaryStream:
    """Walk ``trace`` through a freshly built data side for ``config``.

    Every parameter that shapes data-side behaviour is an argument here
    and a field of the stream-cache key
    (:class:`repro.workloads.registry.BoundaryStreamSpec`);
    ``modified_os`` selects the AMNT++ allocator, which changes physical
    placement.
    """
    from repro.sim.machine import build_data_side

    llc, mm = build_data_side(
        config,
        modified_os=modified_os,
        seed=seed,
        scatter_span_chunks=scatter_span_chunks,
        max_order=max_order,
        reclaim_interval=reclaim_interval,
    )
    return walk_data_side(
        trace, llc, mm, config.security.block_bytes,
        seed, churn_interval, churn_bursts, churn_pages_per_burst,
    )
