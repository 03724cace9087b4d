"""A generic set-associative cache with LRU replacement and dirty bits.

Keys are arbitrary hashable line identifiers — physical block indices
for data caches; ``("ctr", i)`` / ``("node", level, i)`` style tuples
for the metadata cache — so one implementation serves every on-chip
structure in the simulator. Set selection uses a deterministic integer
mix of the key (never Python's randomized ``hash``), keeping runs
reproducible across processes.

The cache stores presence and state only, never payload bytes: content
lives in the NVM backend or the protocol's authoritative structures.
This mirrors how the timing simulator treats caches — as hit/miss
filters with eviction side effects.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, List, Optional

from repro.errors import CacheError
from repro.util.bitops import is_power_of_two
from repro.util.stats import StatRegistry

Key = Hashable


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _avalanche(value: int) -> int:
    """Final mix so low bits depend on high bits."""
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    value ^= value >> 33
    return value


#: Mixed values of non-int key *parts* (the ``"ctr"``/``"node"``/
#: ``"hmac"`` tag strings, in practice). The original recursive mixer
#: re-hashed the tag string character by character for every distinct
#: tuple key — 67k calls with 2x primitive-call amplification in
#: PROFILE_run.json. Memoizing the handful of distinct parts turns a
#: tuple mix into pure integer folds.
_PART_MIX_MEMO: dict = {}


def _mix_key(key: Key) -> int:
    """Deterministically fold a key into an integer for set indexing.

    Iterative over tuple parts with memo-backed sub-mixes; produces
    exactly the values the original recursive form did (set placement
    is behaviour — evictions depend on it — so the math must not move).
    """
    if isinstance(key, int):
        return _avalanche(key)
    if isinstance(key, tuple):
        value = 0x9E3779B97F4A7C15
        for part in key:
            if isinstance(part, int):
                piece = part
            else:
                piece = _PART_MIX_MEMO.get(part)
                if piece is None:
                    piece = _mix_key(part)
                    _PART_MIX_MEMO[part] = piece
            value = (value * 0x100000001B3) ^ (piece & _MASK64)
        return _avalanche(value)
    if isinstance(key, str):
        value = 0xCBF29CE484222325
        for char in key:
            value = ((value ^ ord(char)) * 0x100000001B3) & _MASK64
        return _avalanche(value)
    raise CacheError(f"unsupported cache key type: {type(key).__name__}")


#: Process-wide memo of the (pure) key mix. A sweep builds a fresh
#: machine — and therefore fresh caches — per cell, but the metadata
#: key tuples repeat across cells, so sharing the mix means only the
#: first cell pays for hashing each key. Growth is bounded by the
#: distinct metadata keys of the geometries simulated in this process.
_MIX_MEMO: dict = {}


def mix_of(key: Key) -> int:
    """The memoized deterministic mix of ``key``.

    Exactly what the default (``set_of=None``) placement derives: the
    set index is ``mix_of(key) & (num_sets - 1)``. The MEE's datapath
    records carry it so the kernel probes a set without hashing.
    """
    mixed = _MIX_MEMO.get(key)
    if mixed is None:
        mixed = _mix_key(key)
        _MIX_MEMO[key] = mixed
    return mixed


@dataclass(slots=True)
class CacheLine:
    """State of one resident line."""

    key: Key
    dirty: bool = False


@dataclass(frozen=True, slots=True)
class EvictedLine:
    """An eviction event handed back to the caller."""

    key: Key
    dirty: bool


class SetAssociativeCache:
    """LRU set-associative cache tracking presence and dirtiness."""

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        name: str = "cache",
        set_of: Optional[Callable[[Key], int]] = None,
    ) -> None:
        if not is_power_of_two(num_sets):
            raise CacheError(f"num_sets must be a power of two, got {num_sets}")
        if associativity <= 0:
            raise CacheError(f"associativity must be positive, got {associativity}")
        self.num_sets = num_sets
        self.associativity = associativity
        self.name = name
        self._set_of = set_of
        self.stats = StatRegistry(name)
        # Each set is an OrderedDict: iteration order == LRU -> MRU.
        self._sets: List["OrderedDict[Key, CacheLine]"] = [
            OrderedDict() for _ in range(num_sets)
        ]
        # Hot-loop counters and a per-key set-index memo (the mixing
        # hash is pure, so memoizing it is sound; the memo is bounded
        # by the workload's metadata footprint).
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._fills = self.stats.counter("fills")
        self._evictions = self.stats.counter("evictions")
        self._dirty_evictions = self.stats.counter("dirty_evictions")
        self._index_memo: dict = {}
        self._set_mask = num_sets - 1

    # -- placement -------------------------------------------------------

    def _index(self, key: Key) -> int:
        index = self._index_memo.get(key)
        if index is None:
            if self._set_of is not None:
                index = self._set_of(key) & (self.num_sets - 1)
            else:
                mixed = _MIX_MEMO.get(key)
                if mixed is None:
                    mixed = _mix_key(key)
                    _MIX_MEMO[key] = mixed
                index = mixed & (self.num_sets - 1)
            self._index_memo[key] = index
        return index

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.associativity

    # -- core operations ---------------------------------------------------

    def lookup(self, key: Key) -> bool:
        """Probe for ``key``; a hit refreshes its recency."""
        bucket = self._sets[self._index(key)]
        line = bucket.get(key)
        if line is None:
            self._misses.value += 1
            return False
        bucket.move_to_end(key)
        self._hits.value += 1
        return True

    def contains(self, key: Key) -> bool:
        """Presence check with no recency or stats side effects."""
        return key in self._sets[self._index(key)]

    def insert(self, key: Key, dirty: bool = False) -> Optional[EvictedLine]:
        """Fill ``key``; returns the victim if one was evicted.

        Inserting a key that is already resident refreshes recency and
        ORs in the dirty bit (it never cleans an already-dirty line).
        """
        bucket = self._sets[self._index(key)]
        line = bucket.get(key)
        if line is not None:
            line.dirty = line.dirty or dirty
            bucket.move_to_end(key)
            return None
        victim: Optional[EvictedLine] = None
        if len(bucket) >= self.associativity:
            victim_key, victim_line = bucket.popitem(last=False)
            victim = EvictedLine(victim_key, victim_line.dirty)
            self._evictions.value += 1
            if victim_line.dirty:
                self._dirty_evictions.value += 1
        bucket[key] = CacheLine(key, dirty)
        self._fills.value += 1
        return victim

    def mark_dirty(self, key: Key) -> None:
        """Set the dirty bit on a resident line."""
        line = self._sets[self._index(key)].get(key)
        if line is None:
            raise CacheError(f"{self.name}: mark_dirty on non-resident key {key!r}")
        line.dirty = True

    def clean(self, key: Key) -> None:
        """Clear the dirty bit (after a writeback) if resident."""
        line = self._sets[self._index(key)].get(key)
        if line is not None:
            line.dirty = False

    def is_dirty(self, key: Key) -> bool:
        line = self._sets[self._index(key)].get(key)
        return bool(line and line.dirty)

    def invalidate(self, key: Key) -> Optional[EvictedLine]:
        """Remove ``key`` if present; returns its final state."""
        bucket = self._sets[self._index(key)]
        line = bucket.pop(key, None)
        if line is None:
            return None
        return EvictedLine(line.key, line.dirty)

    # -- bulk operations ---------------------------------------------------

    def lines(self) -> Iterator[CacheLine]:
        """All resident lines (LRU to MRU within each set)."""
        for bucket in self._sets:
            yield from bucket.values()

    def dirty_lines(self) -> Iterator[CacheLine]:
        for line in self.lines():
            if line.dirty:
                yield line

    def drop_all(self) -> List[EvictedLine]:
        """Volatile loss: discard every line (crash modeling).

        Dirty contents are *not* written back — that is the point.
        """
        dropped = [EvictedLine(line.key, line.dirty) for line in self.lines()]
        for bucket in self._sets:
            bucket.clear()
        return dropped

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    # -- metrics -------------------------------------------------------------

    def hit_rate(self) -> float:
        hits = self.stats.get("hits")
        misses = self.stats.get("misses")
        total = hits + misses
        return hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(name={self.name!r}, sets={self.num_sets}, "
            f"ways={self.associativity}, occupancy={self.occupancy()})"
        )


def build_cache(
    capacity_bytes: int,
    line_bytes: int,
    associativity: int,
    name: str,
    set_of: Optional[Callable[[Key], int]] = None,
) -> SetAssociativeCache:
    """Size a cache from capacity/line/ways (the usual datasheet form)."""
    lines = capacity_bytes // line_bytes
    if lines % associativity:
        raise CacheError(
            f"{name}: {lines} lines do not divide into {associativity}-way sets"
        )
    num_sets = lines // associativity
    if not is_power_of_two(num_sets):
        raise CacheError(f"{name}: set count {num_sets} is not a power of two")
    return SetAssociativeCache(num_sets, associativity, name=name, set_of=set_of)
