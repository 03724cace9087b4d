"""The trace-driven simulation loop: walk the data side, then replay.

A run has two halves. The walk (:mod:`repro.sim.replay`) takes each
reference through translation (demand paging), the LLC and periodic
page churn, and records the *memory traffic* — fills, dirty writebacks
and CLWB+fence persists — as a :class:`~repro.sim.replay.BoundaryStream`.
The replay sends that stream through the memory encryption engine.
Secure-memory work therefore only happens where it happens in
hardware: at the memory boundary. No data-side structure reads MEE
state, so splitting the halves changes no result.

Cycle accounting is deliberately simple and serial — think cycles plus
LLC latency plus every NVM access at full latency. Absolute cycle
counts are therefore pessimistic for all protocols equally; every
reported figure is normalized to the volatile baseline run on the same
trace, exactly as the paper normalizes to the volatile secure-memory
scheme.

Every run ends in :func:`replay_stream`, which drives the engine's one
event loop (:meth:`~repro.core.mee.MemoryEncryptionEngine.replay_plan_events`)
and assembles the result. :func:`simulate_from_plan` (every sweep cell)
hands it a compiled plan's records; :func:`simulate` (the single-run
API) and :func:`repro.sim.multicore.simulate_multicore` walk their own
machine's data side and let the engine resolve each record as the loop
reaches it. ``tests/test_golden.py`` pins all three against recorded
digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import PowerFailure, SimulationError
from repro.sim.machine import Machine
from repro.sim.replay import BoundaryStream, trace_columns, walk_data_side
from repro.sim.results import SimulationResult
from repro.telemetry import record_simulation
from repro.util.rng import Seed, make_rng
from repro.workloads.trace import Trace


def replay_stream(
    stream: BoundaryStream, mee, records, cycles: int
) -> SimulationResult:
    """Replay ``stream`` into ``mee``; returns the run's result.

    ``records`` yields each event's datapath record (a compiled plan's
    ``records``, or ``map(mee.record_of, stream.addr)``); ``cycles`` is
    the data side's share of the run, to which the replay adds the
    engine's. Data-side figures come from the stream, the rest from the
    engine's statistics. Also folds the run into telemetry.
    """
    cycles += mee.replay_plan_events(stream.kind, stream.addr, records)
    os_instructions = stream.os_instructions
    result = SimulationResult(
        workload=stream.name,
        protocol=mee.protocol.display_name,
        cycles=cycles,
        accesses=stream.accesses,
        llc_hit_rate=stream.llc_hit_rate(),
        mdcache_hit_rate=mee.mdcache.hit_rate(),
        instructions=stream.app_instructions + os_instructions,
        os_instructions=os_instructions,
        page_faults=stream.page_faults,
        nvm_stats=mee.nvm.stats.snapshot(),
        protocol_stats=mee.protocol.stats.snapshot(),
        mee_stats=mee.stats.snapshot(),
    )
    record_simulation(result, mee, stream.llc_hits, stream.llc_misses)
    return result


def simulate(
    machine: Machine,
    trace: Trace,
    seed: Seed = 0,
    churn_interval: int = 16384,
    churn_bursts: int = 2,
    churn_pages_per_burst: int = 32,
) -> SimulationResult:
    """Run ``trace`` to completion on ``machine``; returns the result.

    Walks ``machine.llc``/``machine.mm`` into a boundary stream, then
    replays it through ``machine.mee``. The run ends at the last access:
    lines still dirty in the LLC stay there.
    """
    stream = walk_data_side(
        trace, machine.llc, machine.mm, machine.config.security.block_bytes,
        seed, churn_interval, churn_bursts, churn_pages_per_burst,
    )
    mee = machine.mee
    llc_latency = machine.config.llc.access_latency_cycles
    cycles = stream.think_total + stream.accesses * llc_latency
    return replay_stream(stream, mee, map(mee.record_of, stream.addr), cycles)


def simulate_from_plan(stream, plan, machine: Machine) -> SimulationResult:
    """Replay a compiled :class:`~repro.sim.replay.BoundaryStream` into
    ``machine.mee`` with its :class:`~repro.sim.plan.MetadataPlan`
    (each event's pre-resolved datapath record); returns the result.

    Only ``machine.mee`` is used (see
    :func:`~repro.sim.machine.build_mee_machine`). Bit-identical to
    :func:`simulate` on the trace the stream was compiled from, provided
    the stream's data-side parameters (config geometry, seed, churn, OS
    variant) match — the cache key in :mod:`repro.workloads.registry`
    encodes that contract.
    """
    llc_latency = machine.config.llc.access_latency_cycles
    cycles = stream.think_total + stream.accesses * llc_latency
    return replay_stream(stream, machine.mee, plan.records, cycles)


# ----------------------------------------------------------------------
# memory-boundary replay (the fault-injection campaign's driver)
# ----------------------------------------------------------------------


def replay_payload(position: int, block_bytes: int = 64) -> bytes:
    """Deterministic plaintext for the write at trace ``position``.

    A pure function of the position so the golden shadow copy and any
    re-derivation of it (e.g. in the oracle's in-flight check) agree
    without shipping payloads around.
    """
    return position.to_bytes(8, "little") * (block_bytes // 8)


@dataclass
class ReplayRecord:
    """What one memory-boundary replay observed."""

    accesses_completed: int = 0
    crashed: bool = False
    crash_phase: str = ""
    crash_occurrence: int = 0
    crash_access_index: int = -1
    crash_write_committed: bool = False
    #: The crash fired inside an open persist group (persist-window
    #: triggers): the in-flight write's fences were partially issued,
    #: so a loud "detected" recovery is acceptable even for
    #: crash-consistent protocols.
    crash_in_group: bool = False
    #: Golden shadow copy: physical block base -> last durable payload.
    golden: Dict[int, bytes] = field(default_factory=dict)
    #: The write in flight at the crash, if its persist group had not
    #: drained: (block base, previous payload or None, attempted payload).
    in_flight: Optional[Tuple[int, Optional[bytes], bytes]] = None


def drive_memory_boundary(
    machine: Machine,
    trace: Trace,
    seed: Seed = 0,
    scheduler=None,
    churn_interval: int = 1024,
    churn_bursts: int = 2,
    churn_pages_per_burst: int = 32,
    verify_reads: bool = True,
) -> ReplayRecord:
    """Replay ``trace`` straight at the memory boundary (no LLC).

    Every reference goes to the MEE as if it had missed the data cache.
    That is deliberate: the fault campaign wants maximal persistence-
    protocol activity per access, and — unlike LLC victim writebacks —
    writes driven here carry payloads, so the golden shadow copy is
    exact. Reads are checked against the shadow as they happen (any
    pre-crash divergence is an engine bug, not a finding).

    ``scheduler`` is a crash scheduler (repro.faults.triggers); its
    :class:`~repro.errors.PowerFailure` is caught here and summarized
    in the returned :class:`ReplayRecord`. With ``scheduler=None`` (or
    an unarmed one) the replay runs to completion.
    """
    mee = machine.mee
    mm = machine.mm
    functional = mee.functional
    block_bytes = machine.config.security.block_bytes
    zero_block = bytes(block_bytes)
    rng = make_rng(f"{seed}/faults/{trace.name}")
    record = ReplayRecord()
    golden = record.golden

    translate = mm.translate
    block_base_of = mee.address_space.block_base
    write_block = mee.write_block
    churn = mm.churn

    vaddrs, pids, thinks, flag_col = trace_columns(trace)
    position = 0
    pending: Optional[Tuple[int, Optional[bytes], bytes]] = None
    try:
        for vaddr, pid, flags in zip(vaddrs, pids, flag_col):
            if scheduler is not None:
                scheduler.on_access(position)
            paddr = translate(pid, vaddr)
            base = block_base_of(paddr)
            if flags & 1:
                fenced = bool(flags & 2)
                if functional:
                    payload = replay_payload(position, block_bytes)
                    pending = (base, golden.get(base), payload)
                    write_block(base, data=payload, fenced=fenced)
                    golden[base] = payload
                    pending = None
                else:
                    write_block(base, fenced=fenced)
            elif functional:
                data = mee.read_block_data(base)
                if verify_reads and data != golden.get(base, zero_block):
                    raise SimulationError(
                        f"pre-crash readback diverged at block {base:#x} "
                        f"(access {position} of {trace.name})"
                    )
            else:
                mee.read_block(base)
            position += 1
            record.accesses_completed = position
            if churn_interval and position % churn_interval == 0:
                churn(
                    rng,
                    bursts=churn_bursts,
                    pages_per_burst=churn_pages_per_burst,
                )
    except PowerFailure as failure:
        record.crashed = True
        record.crash_phase = failure.phase
        record.crash_occurrence = failure.occurrence
        record.crash_access_index = failure.access_index
        record.crash_write_committed = failure.write_committed
        record.crash_in_group = failure.in_group
        if pending is not None:
            if failure.write_committed:
                # The group drained before the lights went out: the
                # interrupted access's write is durable after all.
                golden[pending[0]] = pending[2]
            else:
                record.in_flight = pending
    return record
