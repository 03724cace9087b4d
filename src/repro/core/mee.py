"""The Memory Encryption Engine (MEE): the shared secure-memory datapath.

Every data block that crosses the trusted chip boundary passes through
this engine. The mechanics are identical for every protocol in the
paper — what differs is *which metadata writes are forced through to
NVM and when*, which is delegated to the bound
:class:`~repro.core.protocol.MetadataPersistencePolicy`.

Read path (authentication):
  1. fetch the data block from NVM;
  2. fetch its counter block through the metadata cache;
  3. walk the BMT ancestor path until the first *trusted* anchor — a
     cached node (on-chip means trusted), a protocol NV register (the
     AMNT subtree root, a BMF persistent root), or the global root
     register — fetching missing nodes from NVM along the way;
  4. fetch the block's HMAC line;
  5. in functional mode, actually verify hashes and the MAC, decrypt,
     and raise :class:`~repro.errors.IntegrityError` on any mismatch.

Write path (a dirty block leaving the LLC, or an explicit persist):
  1. read-modify-write the counter (fetch, bump, mark dirty);
  2. update the HMAC line (fetch, mark dirty);
  3. update every BMT node on the ancestor path in the cache (fetch,
     mark dirty) — the tree must reflect the new counter;
  4. write the (encrypted) data block to NVM;
  5. hand control to the protocol, which persists whichever of the
     dirty lines its crash-consistency model requires and charges the
     extra cycles.

Dirty metadata evicted from the cache is lazily written back to NVM by
the engine (the volatile baseline's only metadata traffic); protocols
hook fills and writebacks for their own bookkeeping (Anubis's shadow
table lives entirely in those hooks).

One kernel runs both paths: a read event and a write event over a
*datapath record*, the tuple of everything the engine needs about an
address (its metadata-cache keys with their set mixes and its ancestor
chain, see :class:`RecordResolver`). The direct entries
(:meth:`~MemoryEncryptionEngine.read_block`,
:meth:`~MemoryEncryptionEngine.read_block_data`,
:meth:`~MemoryEncryptionEngine.write_block`) resolve the record of one
address and run one event. Every simulated run replays a boundary
stream through :meth:`~MemoryEncryptionEngine.replay_plan_events`, the
one event loop: sweep cells with a compiled plan's records
(:mod:`repro.sim.plan`), ``simulate()`` and the multicore model with
records the engine resolves as the loop reaches each event. So single
runs, the crash and tamper campaigns, and every figure exercise the
same code.

Wear accounting (:mod:`repro.mem.wear`) is an optional tracker on the
engine: when ``wear_tracker`` is set, the write event and every NVM
write helper (the ``persist_*`` helpers, the lazy metadata writeback)
record the line they write. Without one the cost is an ``is None``
test per write.

Timing and function are separable: built with ``functional=False`` the
engine tracks cache/NVM events and cycles only; with
``functional=True`` it additionally maintains real encrypted bytes,
counters, MACs, and tree hashes, so tamper and crash-recovery tests
exercise the same code path the timing runs measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.cache import CacheLine, mix_of
from repro.cache.metadata_cache import (
    MetadataCache,
    counter_key,
    hmac_key,
    node_key,
)
from repro.config import SystemConfig
from repro.core.protocol import MetadataPersistencePolicy
from repro.crypto.engine import CryptoEngine, RealCryptoEngine
from repro.crypto.hmac import data_mac
from repro.errors import IntegrityError
from repro.integrity.bmt import BonsaiMerkleTree
from repro.integrity.geometry import NodeId, TreeGeometry
from repro.mem.address import AddressSpace
from repro.mem.backend import MetadataRegion, SparseMemory
from repro.mem.nvm import NVMDevice
from repro.persist.root_register import RegisterFile
from repro.util.stats import StatRegistry

#: MACs per 64 B HMAC line (8 x 8 B).
MACS_PER_LINE = 8

# Region enum members resolved once; the read/write paths name their
# region statically instead of re-deriving it from the key tag.
_DATA = MetadataRegion.DATA
_COUNTERS = MetadataRegion.COUNTERS
_TREE = MetadataRegion.TREE
_HMACS = MetadataRegion.HMACS

#: Process-wide ancestor groups: tree shape -> leaf-parent index ->
#: ``(path, triples)``. Sibling counters (one leaf parent) share one
#: ancestor chain, so every record of a sibling group — in any engine
#: or plan of that shape — holds the same two read-only objects. Growth
#: is bounded by the leaf parents touched per simulated geometry.
_ANCESTOR_GROUPS: Dict[Tuple[int, int], Dict[int, tuple]] = {}

#: Process-wide interned ``("ctr", i)`` / ``("hmac", line)`` keys. The
#: tuples depend on the index alone, so the records that each engine and
#: plan owns share one key object per line instead of one per owner (a
#: sweep or storage grid builds many owners over the same lines).
_COUNTER_KEYS: Dict[int, tuple] = {}
_HMAC_KEYS: Dict[int, tuple] = {}


class RecordResolver:
    """Resolves a physical address to its datapath record.

    A record is the tuple ``(ctr_key, ctr_mix, hmac_key, hmac_mix,
    triples, path, counter_index)``: the metadata-cache keys of the
    block's counter line and HMAC line with their deterministic set
    mixes (:func:`~repro.cache.cache.mix_of`), the BMT ancestor chain
    as ``(node, key, mix)`` triples, and the same chain as the node
    list protocols receive. It is everything the MEE kernel needs
    about an address, so an event does no address math or key hashing.

    One record serves every block sharing a (counter line, HMAC line)
    pair, and the memo is owned by whoever owns the resolver: each
    engine keeps one for its direct entries, and
    :func:`~repro.sim.plan.compile_metadata_plan` builds one per plan.
    """

    __slots__ = ("_address_space", "_geometry", "_shift", "_groups", "_records")

    def __init__(
        self, geometry: TreeGeometry, address_space: AddressSpace
    ) -> None:
        self._address_space = address_space
        self._geometry = geometry
        # Blocks under one record: the finer of the page (counter line)
        # and the HMAC line. Both are power-of-two aligned ranges.
        self._shift = min(
            address_space._page_shift,
            address_space._block_shift + MACS_PER_LINE.bit_length() - 1,
        )
        self._groups = _ANCESTOR_GROUPS.setdefault(
            (geometry.num_counter_blocks, geometry.arity), {}
        )
        self._records: Dict[int, tuple] = {}

    def record(self, paddr: int) -> tuple:
        """The record of the block at ``paddr`` (built on first use;
        raises :class:`~repro.errors.AddressError` out of range)."""
        record = self._records.get(paddr >> self._shift)
        if record is None:
            record = self._resolve(paddr)
        return record

    def _resolve(self, paddr: int) -> tuple:
        space = self._address_space
        hmac_line = space.block_index(paddr) // MACS_PER_LINE
        counter_index = space.page_index(paddr)
        parent = counter_index // self._geometry.arity
        group = self._groups.get(parent)
        if group is None:
            path = self._geometry.ancestors_of_counter(counter_index)
            triples = []
            for node in path:
                key = node_key(node[0], node[1])
                triples.append((node, key, mix_of(key)))
            group = (path, tuple(triples))
            self._groups[parent] = group
        ctr_key = _COUNTER_KEYS.get(counter_index)
        if ctr_key is None:
            ctr_key = _COUNTER_KEYS[counter_index] = counter_key(counter_index)
        hkey = _HMAC_KEYS.get(hmac_line)
        if hkey is None:
            hkey = _HMAC_KEYS[hmac_line] = hmac_key(hmac_line)
        record = (
            ctr_key,
            mix_of(ctr_key),
            hkey,
            mix_of(hkey),
            group[1],
            group[0],
            counter_index,
        )
        self._records[paddr >> self._shift] = record
        return record


class MemoryEncryptionEngine:
    """Secure-memory controller: caches, tree, protocol, and timing."""

    def __init__(
        self,
        config: SystemConfig,
        protocol: MetadataPersistencePolicy,
        nvm: Optional[NVMDevice] = None,
        functional: bool = False,
        engine: Optional[CryptoEngine] = None,
        integrity_mode: str = "eager",
    ) -> None:
        from repro.config import validate_integrity_mode

        validate_integrity_mode(integrity_mode)
        self.integrity_mode = integrity_mode
        self.config = config
        self.geometry = TreeGeometry.from_config(config)
        self.address_space = AddressSpace(
            config.pcm.capacity_bytes,
            block_bytes=config.security.block_bytes,
            page_bytes=config.security.page_bytes,
        )
        self.functional = functional
        backend = SparseMemory() if functional else None
        self.nvm = nvm if nvm is not None else NVMDevice(config.pcm, backend=backend)
        if functional and self.nvm.backend is None:
            self.nvm.backend = SparseMemory()
        if functional and config.persist_model == "wpq":
            # Stage functional stores in a write-pending queue (undo
            # log). Must happen before the tree is built so tree,
            # protocols, and engine all share the journaling backend.
            self.nvm.attach_wpq()
        #: Pre-resolved WPQ handle (None under write-through): the
        #: persist helpers fence it and the group commits drain it.
        self._wpq = self.nvm.wpq
        self.mdcache = MetadataCache(config.metadata_cache)
        self.registers = RegisterFile()
        self.stats = StatRegistry("mee")
        # Pre-resolved counters for the per-event kernel: bumping
        # ``.value`` directly skips the string-keyed registry lookup.
        self._ctr_data_reads = self.stats.counter("data_reads")
        self._ctr_data_writes = self.stats.counter("data_writes")
        self._ctr_walk_register = self.stats.counter("walk_stopped_at_register")
        self._ctr_walk_cache = self.stats.counter("walk_stopped_at_cache")
        self._ctr_md_writebacks = self.stats.counter("metadata_writebacks")
        self._md_clean = self.mdcache.clean
        #: The engine's own address -> datapath record resolver, used by
        #: the direct entries and by uncompiled replays (memo freed with
        #: the engine; plans own theirs).
        self.record_of = RecordResolver(self.geometry, self.address_space).record
        self._persist_ctr_write = self.nvm.writer(_COUNTERS, persist=True)
        self._persist_tree_write = self.nvm.writer(_TREE, persist=True)
        self._persist_hmac_write = self.nvm.writer(_HMACS, persist=True)
        self._wb_writers_by_kind = {
            "ctr": self.nvm.writer(_COUNTERS),
            "node": self.nvm.writer(_TREE),
            "hmac": self.nvm.writer(_HMACS),
        }
        # Posted (queued) writes expose only part of the device latency
        # to the critical path; persists always pay it all.
        self._posted_write_cycles = max(
            1,
            int(
                self.nvm.write_latency_cycles
                * config.pcm.posted_write_latency_fraction
            ),
        )

        self.engine: Optional[CryptoEngine] = None
        self.tree: Optional[BonsaiMerkleTree] = None
        self._volatile_hmacs: Dict[int, bytes] = {}
        #: Plaintext of the last functional read (read_block_data).
        self._plaintext = b""
        #: Optional wear instrumentation (repro.mem.wear). When set,
        #: the data write and the NVM write helpers record each line
        #: they write here, and so do protocols with private regions
        #: (Anubis's shadow table).
        self.wear_tracker = None
        #: Optional crash scheduler (repro.faults.triggers). When set,
        #: the engine announces phase boundaries to it and brackets each
        #: data write in a persist group so injected power failures land
        #: only at points real ADR hardware could expose.
        self.fault_probe = None
        if functional:
            self.engine = engine if engine is not None else RealCryptoEngine()
            self.tree = BonsaiMerkleTree(
                self.geometry, self.engine, self.nvm.backend,
                mode=integrity_mode,
            )
        # The global BMT root register exists in every protocol.
        root = self.registers.allocate("bmt_root", 64)
        if self.tree is not None:
            root.write(self.tree.root_register)

        self.protocol = protocol
        self._writeback_hook = (
            protocol.on_metadata_writeback
            if type(protocol).on_metadata_writeback
            is not MetadataPersistencePolicy.on_metadata_writeback
            else None
        )
        protocol.bind(self)
        self._read_event, self._write_event = self._build_kernel()

    # ------------------------------------------------------------------
    # the per-event kernel
    # ------------------------------------------------------------------

    def _build_kernel(self):
        """Build the two per-event functions every entry runs.

        ``read_event(paddr, record)`` authenticates one block fill and
        ``write_event(paddr, record, data, fenced)`` performs one data
        write, each returning its cycles (see the module docstring for
        the steps). ``record`` comes from a :class:`RecordResolver`:
        :meth:`read_block`/:meth:`write_block` resolve it per call, and
        :meth:`replay_plan_events` takes it from its caller (a compiled
        plan, or :attr:`record_of` applied to each event's address).

        Everything the events touch is resolved once here, except the
        instruments a run attaches after construction: the write event
        reads ``wear_tracker`` and ``fault_probe`` per call.

        Protocol hooks are called only when the protocol's class
        overrides them: most of the lineup keeps the no-op defaults, so
        the common case pays an attribute test instead of a method call
        several times per event. The checks are against the class, so
        monkeypatched instances of an overriding protocol still work.
        """
        inner = self.mdcache._cache
        sets = inner._sets
        set_mask = inner._set_mask
        assoc = inner.associativity
        md_hits = inner._hits
        md_misses = inner._misses
        md_fills = inner._fills
        md_evictions = inner._evictions
        md_dirty_evictions = inner._dirty_evictions
        md_latency = self.mdcache.access_latency_cycles
        nvm = self.nvm
        read_data = nvm.reader(_DATA)
        read_ctr = nvm.reader(_COUNTERS)
        read_tree = nvm.reader(_TREE)
        read_hmac = nvm.reader(_HMACS)
        write_data = nvm.writer(_DATA)
        data_reads = self._ctr_data_reads
        data_writes = self._ctr_data_writes
        walk_cache = self._ctr_walk_cache
        walk_register = self._ctr_walk_register
        protocol = self.protocol
        base = MetadataPersistencePolicy
        proto_cls = type(protocol)
        fill_hook = (
            protocol.on_metadata_fill
            if proto_cls.on_metadata_fill is not base.on_metadata_fill
            else None
        )
        read_auth_hook = (
            protocol.on_read_authentication
            if proto_cls.on_read_authentication is not base.on_read_authentication
            else None
        )
        trusted = (
            protocol.trusted_register_node
            if proto_cls.has_trusted_registers
            else None
        )
        extent_of = (
            None
            if proto_cls.path_update_extent is base.path_update_extent
            else protocol.path_update_extent
        )
        on_data_write = protocol.on_data_write
        wpq = self._wpq
        functional = self.functional
        block_shift = self.address_space._block_shift
        posted_cycles = self._posted_write_cycles
        fenced_cycles = nvm.write_latency_cycles
        verify_and_decrypt = self._verify_and_decrypt
        bump_and_store = self._functional_counter_bump_and_store
        writeback = self._writeback_metadata
        line_cls = CacheLine
        mee = self

        def reference(key, mix, dirty, nvm_read):
            """One metadata-cache reference, LRU with write-allocate;
            returns None on a hit, else the miss's extra cycles (NVM
            fill, fill hook, lazy writeback of a dirty victim)."""
            bucket = sets[mix & set_mask]
            line = bucket.get(key)
            if line is not None:
                if dirty:
                    line.dirty = True
                bucket.move_to_end(key)
                md_hits.value += 1
                return None
            md_misses.value += 1
            victim = None
            if len(bucket) >= assoc:
                victim = bucket.popitem(last=False)[1]
                md_evictions.value += 1
                if victim.dirty:
                    md_dirty_evictions.value += 1
            bucket[key] = line_cls(key, dirty)
            md_fills.value += 1
            cycles = nvm_read()
            if fill_hook is not None:
                cycles += fill_hook(key)
            if victim is not None and victim.dirty:
                cycles += writeback(victim.key)
            return cycles

        def read_event(paddr, record):
            ctr_key, ctr_mix, hkey, hmac_mix, triples, path, counter_index = (
                record
            )
            data_reads.value += 1
            cycles = read_data() + md_latency
            tail = reference(ctr_key, ctr_mix, False, read_ctr)
            if tail is not None:
                cycles += tail
            # Verification walk: stop at the first trusted anchor (a
            # protocol NV register, or a cached node).
            for node, key, mix in triples:
                if trusted is not None and trusted(node, counter_index):
                    walk_register.value += 1
                    break
                cycles += md_latency
                tail = reference(key, mix, False, read_tree)
                if tail is None:
                    walk_cache.value += 1
                    break
                cycles += tail
            cycles += md_latency
            tail = reference(hkey, hmac_mix, False, read_hmac)
            if tail is not None:
                cycles += tail
            if read_auth_hook is not None:
                cycles += read_auth_hook(counter_index)
            if functional:
                mee._plaintext = verify_and_decrypt(paddr, counter_index)
            return cycles

        def write_event(paddr, record, data, fenced):
            wear = mee.wear_tracker
            if wear is not None:
                wear.record(_DATA, mee.address_space.block_index(paddr))
            ctr_key, ctr_mix, hkey, hmac_mix, triples, path, counter_index = (
                record
            )
            data_writes.value += 1
            probe = mee.fault_probe
            if probe is not None:
                # The functional tree updates the NV root register
                # atomically with the counter bump, so a crash landing
                # between that bump and the protocol's persists would
                # fabricate a torn state no ADR machine can produce.
                # Phase triggers inside the group are therefore deferred
                # to the commit below (the write completes durably);
                # triggers outside any group raise immediately.
                probe.begin_group()
            # 1. read-modify-write the counter.
            cycles = md_latency
            tail = reference(ctr_key, ctr_mix, True, read_ctr)
            if tail is not None:
                cycles += tail
            if functional:
                bump_and_store(paddr, counter_index, data, path)
            # 2. update the HMAC line in cache.
            cycles += md_latency
            tail = reference(hkey, hmac_mix, True, read_hmac)
            if tail is not None:
                cycles += tail
            # 3. update the ancestor path in cache (protocols with an NV
            #    trust anchor stop below it; the extent is a path prefix).
            if extent_of is not None:
                triples = triples[: len(extent_of(counter_index, path))]
            for node, key, mix in triples:
                cycles += md_latency
                tail = reference(key, mix, True, read_tree)
                if tail is not None:
                    cycles += tail
            # 4. the data write itself (posted, unless under a fence).
            write_data()
            cycles += fenced_cycles if fenced else posted_cycles
            # 5. protocol-specific persistence.
            cycles += on_data_write(
                counter_index, paddr >> block_shift, path, fenced=fenced
            )
            if wpq is not None:
                # ADR drain at the group's commit point (before the
                # commit callback, so a deferred crash finds the queue
                # empty and the write durable — write_committed=True).
                wpq.drain()
            if probe is not None:
                probe.commit_group()
            return cycles

        return read_event, write_event

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------

    def read_block(self, paddr: int) -> int:
        """Authenticate-and-fetch one block; returns cycles."""
        return self._read_event(paddr, self.record_of(paddr))

    def read_block_data(self, paddr: int) -> bytes:
        """Functional read: authenticate, decrypt, return plaintext."""
        if not self.functional:
            raise RuntimeError("read_block_data requires functional mode")
        self._read_event(paddr, self.record_of(paddr))
        return self._plaintext

    def write_block(
        self,
        paddr: int,
        data: Optional[bytes] = None,
        fenced: bool = False,
    ) -> int:
        """One data write reaching memory; returns cycles.

        ``fenced`` marks an application persistence fence (CLWB +
        sfence): the data write itself is synchronous rather than
        posted, and the protocol's fence-ordered bookkeeping is charged
        on the critical path.
        """
        return self._write_event(paddr, self.record_of(paddr), data, fenced)

    def replay_plan_events(self, kinds, addrs, event_records) -> int:
        """Run a boundary stream's events through the kernel; returns
        total cycles.

        ``kinds``/``addrs`` are a :class:`~repro.sim.replay.BoundaryStream`'s
        columns (0 = fill, 1 = posted writeback, 2 = fenced persist) and
        ``event_records`` yields each event's datapath record: a
        :class:`~repro.sim.plan.MetadataPlan`'s records, or
        ``map(mee.record_of, addrs)`` to resolve them as the loop goes.
        """
        read_event = self._read_event
        write_event = self._write_event
        cycles = 0
        for kind, addr, record in zip(kinds, addrs, event_records):
            if kind == 0:
                cycles += read_event(addr, record)
            else:
                cycles += write_event(addr, record, None, kind == 2)
        return cycles

    def ancestor_path(self, counter_index: int) -> List[NodeId]:
        """The ancestor chain (leaf-parent .. root) of a counter."""
        return self.geometry.ancestors_of_counter(counter_index)

    # ------------------------------------------------------------------
    # metadata writeback
    # ------------------------------------------------------------------

    def _writeback_metadata(self, key: tuple) -> int:
        """Lazy writeback of a dirty metadata line on eviction (posted:
        it drains from the write queue off the critical path)."""
        wear = self.wear_tracker
        if wear is not None:
            kind = key[0]
            if kind == "ctr":
                wear.record(_COUNTERS, key[1])
            elif kind == "node":
                wear.record(_TREE, (key[1], key[2]))
            else:
                wear.record(_HMACS, key[1])
        probe = self.fault_probe
        if probe is not None:
            # Posted writebacks can be lost to a power cut: outside a
            # persist group the failure raises here, before the backend
            # sync below runs, so the evicted line's value dies with the
            # write queue — a genuinely torn eviction.
            probe.on_phase("mdcache_eviction")
        self._wb_writers_by_kind[key[0]]()
        cycles = self._posted_write_cycles
        self._ctr_md_writebacks.value += 1
        if self.functional:
            self._sync_line_to_backend(key)
        hook = self._writeback_hook
        if hook is not None:
            cycles += hook(key)
        return cycles

    def _sync_line_to_backend(self, key: tuple) -> None:
        """Functional mode: make NVM reflect the evicted line's value."""
        kind = key[0]
        assert self.tree is not None
        if kind == "ctr":
            self.tree.persist_counter(key[1])
        elif kind == "node":
            self.tree.persist_node((key[1], key[2]))
        elif kind == "hmac":
            line = key[1]
            for block in range(line * MACS_PER_LINE, (line + 1) * MACS_PER_LINE):
                mac = self._volatile_hmacs.pop(block, None)
                if mac is not None:
                    self.nvm.backend.write(MetadataRegion.HMACS, block, mac)

    # ------------------------------------------------------------------
    # persist helpers (called by protocols)
    # ------------------------------------------------------------------

    @property
    def posted_write_cycles(self) -> int:
        """Critical-path cost of a write that overlaps another in-flight
        write (different NVM banks). Protocols charge this for the
        second and later persists of an *unordered* group — e.g. leaf
        persistence's HMAC line, which issues concurrently with its
        counter line. Ordered (tree-walk) persists pay full latency."""
        return self._posted_write_cycles

    def persist_counter_line(self, counter_index: int) -> int:
        """Write-through the counter line (crash-consistency persist)."""
        wear = self.wear_tracker
        if wear is not None:
            wear.record(_COUNTERS, counter_index)
        probe = self.fault_probe
        if probe is not None:
            # The persist window: this line is not yet durable, and
            # neither is anything enqueued since the last fence.
            probe.on_persist()
        cycles = self._persist_ctr_write()
        self._md_clean(counter_key(counter_index))
        if self.functional:
            self.tree.persist_counter(counter_index)
        if self._wpq is not None:
            self._wpq.fence()
        return cycles

    def persist_hmac_line(self, hmac_line: int) -> int:
        wear = self.wear_tracker
        if wear is not None:
            wear.record(_HMACS, hmac_line)
        probe = self.fault_probe
        if probe is not None:
            probe.on_persist()
        cycles = self._persist_hmac_write()
        self._md_clean(hmac_key(hmac_line))
        if self.functional:
            first = hmac_line * MACS_PER_LINE
            for block in range(first, first + MACS_PER_LINE):
                mac = self._volatile_hmacs.pop(block, None)
                if mac is not None:
                    self.nvm.backend.write(MetadataRegion.HMACS, block, mac)
        if self._wpq is not None:
            self._wpq.fence()
        return cycles

    def persist_tree_node(self, node: NodeId) -> int:
        wear = self.wear_tracker
        if wear is not None:
            wear.record(_TREE, node)
        probe = self.fault_probe
        if probe is not None:
            probe.on_persist()
        cycles = self._persist_tree_write()
        self._md_clean(node_key(node[0], node[1]))
        if self.functional:
            self.tree.persist_node(node)
        if self._wpq is not None:
            self._wpq.fence()
        return cycles

    # ------------------------------------------------------------------
    # fault-injection instrumentation
    # ------------------------------------------------------------------

    def fire_phase(self, name: str) -> None:
        """Announce a protocol-phase boundary to an attached fault
        probe (no-op when none is attached)."""
        probe = self.fault_probe
        if probe is not None:
            probe.on_phase(name)

    def commit_persist_group(self) -> None:
        """Mark the in-flight write's persist group durable early.

        The engine commits the group itself at the end of
        :meth:`write_block`; protocols whose ``on_data_write`` continues
        with separately crashable maintenance after the write's own
        persists are complete (AMNT's movement) call this first, so
        crashes injected into that tail find the write already durable.
        """
        if self._wpq is not None:
            # Drain before the commit callback: a crash deferred to
            # this point must observe an empty pending set (the ADR
            # drain is what makes the write durable).
            self._wpq.drain()
        probe = self.fault_probe
        if probe is not None:
            probe.commit_group()

    # ------------------------------------------------------------------
    # functional content helpers
    # ------------------------------------------------------------------

    def _stored_mac(self, block_index: int, paddr: int) -> bytes:
        mac = self._volatile_hmacs.get(block_index)
        if mac is not None:
            return mac
        if self.nvm.backend.contains(MetadataRegion.HMACS, block_index):
            return self.nvm.backend.read(
                MetadataRegion.HMACS, block_index, self.engine.mac_bytes
            )
        # Genesis MAC: zero ciphertext under a zero counter.
        zero_cipher = bytes(self.config.security.block_bytes)
        return data_mac(self.engine, zero_cipher, paddr, 0, 0)

    def _verify_and_decrypt(self, paddr: int, counter_index: int) -> bytes:
        block_index = self.address_space.block_index(paddr)
        block_base = self.address_space.block_base(paddr)
        if not self.nvm.backend.contains(MetadataRegion.DATA, block_index):
            # Never-written memory is not yet under counter-mode
            # encryption: it reads as zeros (still authenticated — the
            # genesis MAC covers exactly this state).
            self.tree.authenticate_or_raise(counter_index)
            return bytes(self.config.security.block_bytes)
        ciphertext = self.nvm.backend.read(
            MetadataRegion.DATA, block_index, self.config.security.block_bytes
        )
        counter = self.tree.current_counter(counter_index)
        offset = self.address_space.block_offset_in_page(paddr)
        major, minor = counter.counter_for(offset)
        expected_mac = data_mac(self.engine, ciphertext, block_base, major, minor)
        if expected_mac != self._stored_mac(block_index, block_base):
            raise IntegrityError(
                f"HMAC mismatch for block {block_index} (addr {paddr:#x})"
            )
        self.tree.authenticate_or_raise(counter_index)
        return self.engine.decrypt(ciphertext, block_base, major, minor)

    def _functional_counter_bump_and_store(
        self,
        paddr: int,
        counter_index: int,
        data: Optional[bytes],
        path: List[NodeId],
    ) -> None:
        block_index = self.address_space.block_index(paddr)
        block_base = self.address_space.block_base(paddr)
        block_bytes = self.config.security.block_bytes
        plaintext = data if data is not None else bytes(block_bytes)
        if len(plaintext) != block_bytes:
            raise ValueError(f"data must be exactly {block_bytes} bytes")
        offset = self.address_space.block_offset_in_page(paddr)
        old_counter = self.tree.current_counter(counter_index).copy()
        counter = old_counter.copy()
        overflowed = counter.bump(offset)
        if overflowed:
            self.stats.add("minor_overflows")
            self._reencrypt_page(counter_index, old_counter, counter)
        self.tree.set_counter(counter_index, counter, persist=False, path=path)
        major, minor = counter.counter_for(offset)
        ciphertext = self.engine.encrypt(plaintext, block_base, major, minor)
        self.nvm.backend.write(MetadataRegion.DATA, block_index, ciphertext)
        self._volatile_hmacs[block_index] = data_mac(
            self.engine, ciphertext, block_base, major, minor
        )

    def _reencrypt_page(self, counter_index, old_counter, new_counter) -> None:
        """Minor-counter overflow: re-encrypt every stored block of the
        page under the new major counter."""
        blocks_per_page = self.config.security.counters_per_block
        first_block = counter_index * blocks_per_page
        for offset in range(blocks_per_page):
            block_index = first_block + offset
            if not self.nvm.backend.contains(MetadataRegion.DATA, block_index):
                continue
            block_base = self.address_space.addr_of_block(block_index)
            old_major, old_minor = old_counter.counter_for(offset)
            ciphertext = self.nvm.backend.read(
                MetadataRegion.DATA, block_index, self.config.security.block_bytes
            )
            plaintext = self.engine.decrypt(
                ciphertext, block_base, old_major, old_minor
            )
            new_major, new_minor = new_counter.counter_for(offset)
            recrypted = self.engine.encrypt(
                plaintext, block_base, new_major, new_minor
            )
            self.nvm.backend.write(MetadataRegion.DATA, block_index, recrypted)
            self._volatile_hmacs[block_index] = data_mac(
                self.engine, recrypted, block_base, new_major, new_minor
            )

    # ------------------------------------------------------------------
    # crash modeling
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: every volatile structure loses its contents."""
        self.mdcache.drop_all()
        self._volatile_hmacs.clear()
        if self.tree is not None:
            self.tree.crash()
        self.registers.crash()  # no-op by design; NV registers survive
        self.stats.add("crashes")
