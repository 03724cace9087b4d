"""The sparse recovery rebuild against the dense rebuild it replaced.

``BonsaiMerkleTree.subtree_value_from_persisted`` hashes only counters
present in the persisted COUNTERS image. The original walked every
counter under the subtree; it survives here as the oracle. Both must
return the same node value, write the same TREE image (keys, bytes and,
under a write-pending queue, store order) and report the same
``nodes_recomputed``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.counters import CounterBlock
from repro.crypto.engine import RealCryptoEngine
from repro.faults.campaign import default_fault_config
from repro.integrity.bmt import NODE_BYTES, SLOT_BYTES, BonsaiMerkleTree
from repro.integrity.geometry import NodeId, TreeGeometry
from repro.mem.backend import MetadataRegion, SparseMemory
from repro.mem.nvm import PendingSparseMemory, WritePendingQueue


def reference_subtree_value_from_persisted(
    tree: BonsaiMerkleTree, subtree: NodeId
) -> Tuple[bytes, int]:
    """The dense rebuild: hash every counter under ``subtree``, then
    every node level by level."""
    level, _ = subtree
    arity = tree.geometry.arity
    first, last = tree.geometry.counter_range_of(subtree)
    child_hashes: Dict[int, bytes] = {}
    for counter_index in range(first, last):
        raw = tree.persisted_counter(counter_index).encode()
        child_hashes[counter_index] = tree.engine.hash8(raw)
    nodes_recomputed = 0
    current_level = tree.geometry.counter_level - 1
    while current_level >= level:
        parent_hashes: Dict[int, bytes] = {}
        grouped: Dict[int, List[Tuple[int, bytes]]] = {}
        for child_index, digest in child_hashes.items():
            grouped.setdefault(child_index // arity, []).append((child_index, digest))
        for parent_index, children in grouped.items():
            slots = bytearray(NODE_BYTES)
            for child_index, digest in children:
                slot = child_index % arity
                slots[slot * SLOT_BYTES : (slot + 1) * SLOT_BYTES] = digest
            node_value = bytes(slots)
            node_id = (current_level, parent_index)
            tree.backend.write(MetadataRegion.TREE, node_id, node_value)
            tree._volatile_nodes.pop(node_id, None)
            tree._lazy_slots.pop(node_id, None)
            parent_hashes[parent_index] = tree.engine.hash8(node_value)
            nodes_recomputed += 1
        child_hashes = parent_hashes
        current_level -= 1
    return tree.persisted_node_bytes(subtree), nodes_recomputed


def crashed_tree(
    num_counters: int,
    wpq: bool,
    seed: int,
    writes: int,
    tampers: int,
    arity: int = 8,
) -> BonsaiMerkleTree:
    """A tree after a crash: some counters persisted (some with their
    paths), some left volatile, some lines overwritten with random bytes."""
    rng = random.Random(seed)
    backend = (
        PendingSparseMemory(WritePendingQueue()) if wpq else SparseMemory()
    )
    tree = BonsaiMerkleTree(
        TreeGeometry(num_counter_blocks=num_counters, arity=arity),
        RealCryptoEngine(),
        backend,
    )
    for _ in range(writes):
        index = rng.randrange(num_counters)
        block = tree.current_counter(index).copy()
        block.bump(rng.randrange(64))
        tree.set_counter(index, block, persist=rng.random() < 0.8)
        if rng.random() < 0.3:
            tree.persist_path(index)
    tree.crash()
    for _ in range(tampers):
        index = rng.randrange(num_counters)
        backend.write(MetadataRegion.COUNTERS, index, rng.randbytes(64))
    return tree


def images(tree: BonsaiMerkleTree):
    backend = tree.backend
    tree_image = {
        key: backend.read(MetadataRegion.TREE, key)
        for key in backend.keys(MetadataRegion.TREE)
    }
    journal = None
    if isinstance(backend, PendingSparseMemory):
        journal = [
            (line.region, line.key, line.existed, line.original, line.versions)
            for line in backend.wpq.entries.values()
        ]
    return tree_image, journal


def subtree_roots(geometry: TreeGeometry) -> List[NodeId]:
    """The root, and the first, a middle and the last node of each
    level below it (the last one spans a partial edge when the capacity
    is ragged)."""
    roots = [(1, 0)]
    for level in range(2, geometry.num_node_levels + 1):
        width = geometry.nodes_at_level(level)
        roots.extend((level, index) for index in sorted({0, width // 2, width - 1}))
    return roots


class TestRebuildOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        num_counters=st.sampled_from([512, 1000, 4097, 9, 1]),
        arity=st.sampled_from([8, 4, 2]),
        wpq=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        writes=st.integers(min_value=0, max_value=40),
        tampers=st.integers(min_value=0, max_value=3),
        pick=st.integers(min_value=0),
    )
    def test_matches_dense_rebuild(
        self, num_counters, arity, wpq, seed, writes, tampers, pick
    ):
        args = (num_counters, wpq, seed, writes, tampers, arity)
        fast, dense = crashed_tree(*args), crashed_tree(*args)
        roots = subtree_roots(fast.geometry)
        subtree = roots[pick % len(roots)]
        assert fast.subtree_value_from_persisted(
            subtree
        ) == reference_subtree_value_from_persisted(dense, subtree)
        assert images(fast) == images(dense)

    @pytest.mark.parametrize(
        "num_counters, arity",
        # 64 MB: the full tree and AMNT subtree roots. Arity 2 and 4
        # make a genesis node shorter than a 64 B line before padding.
        [(16384, 8), (1000, 4), (1000, 2)],
    )
    def test_fixed_geometries_on_both_backends(self, num_counters, arity):
        for wpq in (False, True):
            args = (num_counters, wpq, 7, 60, 2, arity)
            fast, dense = crashed_tree(*args), crashed_tree(*args)
            for subtree in subtree_roots(fast.geometry):
                assert fast.subtree_value_from_persisted(
                    subtree
                ) == reference_subtree_value_from_persisted(dense, subtree)
                assert images(fast) == images(dense)

    def test_rebuilt_image_is_internally_consistent(self):
        for num_counters, arity in ((16384, 8), (1000, 8), (1000, 4), (1000, 2)):
            tree = crashed_tree(num_counters, False, 3, 30, 2, arity)
            tree.subtree_value_from_persisted((1, 0))
            written = list(tree.backend.keys(MetadataRegion.COUNTERS))
            for index in written + list(range(0, num_counters, 97)):
                report = tree.verify_counter(index, persisted_only=True)
                assert report.mismatched_levels == []


class CountingEngine(RealCryptoEngine):
    def __init__(self) -> None:
        super().__init__()
        self.hash8_calls = 0

    def hash8(self, data: bytes) -> bytes:
        self.hash8_calls += 1
        return super().hash8(data)


class TestRebuildHashCount:
    """Recovery hashes written counters and tree nodes, not the whole
    counter space; counted in calls, so host speed does not matter."""

    WRITTEN = (0, 9, 4000, 16383, 7777)

    def crashed_fault_tree(self) -> BonsaiMerkleTree:
        engine = CountingEngine()
        geometry = TreeGeometry.from_config(default_fault_config())
        tree = BonsaiMerkleTree(geometry, engine, SparseMemory())
        for index in self.WRITTEN:
            block = CounterBlock()
            block.bump(index % 64)
            tree.set_counter(index, block, persist=True)
        tree.crash()
        engine.hash8_calls = 0
        return tree

    def bound(self, tree: BonsaiMerkleTree) -> int:
        return len(self.WRITTEN) + tree.geometry.total_nodes() + 1

    def test_rebuild_hashes_at_most_written_plus_nodes(self):
        tree = self.crashed_fault_tree()
        assert tree.geometry.num_counter_blocks == 16384
        tree.rebuild_all_from_persisted()
        assert tree.engine.hash8_calls <= self.bound(tree)

    def test_dense_rebuild_breaks_the_bound(self):
        # The guard can see the regression it is for.
        tree = self.crashed_fault_tree()
        reference_subtree_value_from_persisted(tree, (1, 0))
        assert tree.engine.hash8_calls > self.bound(tree)
