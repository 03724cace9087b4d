"""Metadata-plan compilation: resolve per-event datapath records once.

Boundary streams (:mod:`repro.sim.replay`) compile the
protocol-independent *data side* of a trace once and replay it into
every protocol. This module applies the same argument one layer down:
for a fixed trace + geometry, the metadata lines each boundary event
touches — the counter line, the HMAC line, and the BMT ancestor path —
are identical for every protocol and every metadata-cache size.

:func:`compile_metadata_plan` walks a compiled
:class:`~repro.sim.replay.BoundaryStream`'s addresses once and emits a
:class:`MetadataPlan`: one datapath record per event, resolved by the
same :class:`~repro.core.mee.RecordResolver` the MEE's direct
``read_block``/``write_block`` entries use, so a planned replay runs
the MEE kernel on exactly the records a direct run would resolve.

What is *not* planned: fault campaigns keep the direct entries (their
crash oracles need live data-cache state and per-access probes, see
``repro.faults.campaign.run_fault_cell``), exactly as they bypass
boundary-stream replay.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core.mee import RecordResolver
from repro.integrity.geometry import TreeGeometry
from repro.mem.address import AddressSpace


class MetadataPlan:
    """The compiled metadata plan of one boundary stream: ``records[i]``
    is the datapath record of the stream's event ``i`` (flush tail
    included). Events sharing a (counter line, HMAC line) pair share
    one record, and records of sibling counters share their ancestor
    chain; the records live and die with the plan."""

    __slots__ = ("name", "records")

    def __init__(self, name: str, records: list) -> None:
        self.name = name
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"MetadataPlan(name={self.name!r}, events={len(self.records)})"


def compile_metadata_plan(stream, config: SystemConfig) -> MetadataPlan:
    """Resolve the datapath record of every event in ``stream``.

    Pure address/tree arithmetic, so the plan depends only on the
    stream and the metadata geometry (block/page split, capacity, tree
    arity), never on the metadata-cache shape or the protocol: one plan
    serves every protocol replay of the stream, and a
    metadata-cache-only config change shares it (the compiled-pair
    cache key in :mod:`repro.workloads.registry` encodes exactly that
    contract).
    """
    resolver = RecordResolver(
        TreeGeometry.from_config(config),
        AddressSpace(
            config.pcm.capacity_bytes,
            block_bytes=config.security.block_bytes,
            page_bytes=config.security.page_bytes,
        ),
    )
    record = resolver.record
    return MetadataPlan(stream.name, [record(addr) for addr in stream.addr])
