"""Boot aging against its loop references.

``BuddyAllocator.scatter`` frees its even frames in one bulk push, and
``AMNTPlusPlusRestructurer.restructure`` looks up each free-list
entry's region once. The per-frame ``free_pages`` loop and the two-pass
scan-then-rebuild they replaced are kept here as references: for any
geometry, span and seed both must leave the same free lists (in order),
the same free-set membership (in insertion order), the same statistics,
return values, fault-hook calls and RNG stream.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.os.amntpp import AMNTPlusPlusRestructurer
from repro.os.buddy import (
    INSTRUCTIONS_PER_LIST_OP,
    INSTRUCTIONS_PER_SCAN_STEP,
    BuddyAllocator,
)
from repro.util.rng import make_rng
from tests.golden import allocator_image as image


class LoopScatterAllocator(BuddyAllocator):
    """The reference: every even frame freed through ``free_pages``."""

    def scatter(self, rng, span_chunks: int = 64) -> int:
        frames = []
        for _ in range(span_chunks):
            try:
                base = self.alloc_pages(self.max_order)
            except AllocationError:
                break
            frames.extend(range(base, base + (1 << self.max_order)))
        even_frames = [pfn for pfn in frames if pfn % 2 == 0]
        rng.shuffle(even_frames)
        for pfn in even_frames:
            self.free_pages(pfn, 0)
        self.stats.add("scatter_pages", len(even_frames))
        return len(even_frames)


class TwoPassRestructurer(AMNTPlusPlusRestructurer):
    """The reference: scan, then rebuild with a second region lookup."""

    def restructure(self, allocator) -> int:
        if self.phase_hook is not None:
            self.phase_hook()
        region_chunks = {}
        scan_steps = 0
        for order, pfns in enumerate(allocator.free_area):
            for pfn in pfns:
                region = self.region_of_pfn(pfn)
                region_chunks[region] = region_chunks.get(region, 0) + 1
                scan_steps += 1
        self._charge(allocator, scan_steps * INSTRUCTIONS_PER_SCAN_STEP)
        if not region_chunks:
            return -1
        best_region = min(
            region_chunks, key=lambda region: (-region_chunks[region], region)
        )
        if self.phase_hook is not None:
            self.phase_hook()
        moves = 0
        for order, pfns in enumerate(allocator.free_area):
            biased = deque()
            rest = deque()
            for pfn in pfns:
                if self.region_of_pfn(pfn) == best_region:
                    biased.append(pfn)
                    moves += 1
                else:
                    rest.append(pfn)
            biased.extend(rest)
            allocator.free_area[order] = biased
        self._charge(allocator, moves * INSTRUCTIONS_PER_LIST_OP)
        allocator.stats.add("restructures")
        self.last_biased_region = best_region
        return best_region


@st.composite
def geometries(draw):
    """``(total_pages, max_order, span_chunks, pre_orders, region_pages)``."""
    total_log = draw(st.integers(0, 12))
    max_order = draw(st.integers(0, min(total_log, 10)))
    chunks = 1 << (total_log - max_order)
    span = draw(st.integers(0, chunks + 3))
    # Allocations made before the scatter, so it also runs on an
    # allocator that is not fresh.
    pre_orders = draw(st.lists(st.integers(0, max_order), max_size=6))
    region_pages = 1 << draw(st.integers(0, total_log))
    return 1 << total_log, max_order, span, pre_orders, region_pages


def aged_pair(total, max_order, span, pre_orders, seed):
    """A closed-form and a reference allocator, aged identically;
    returns both, their ``scatter`` results and their RNGs."""
    allocators = []
    for cls in (BuddyAllocator, LoopScatterAllocator):
        allocator = cls(total, max_order=max_order)
        for order in pre_orders:
            try:
                allocator.alloc_pages(order)
            except AllocationError:
                break
        rng = make_rng(f"{seed}/scatter")
        allocators.append((allocator, allocator.scatter(rng, span), rng))
    return allocators


@settings(max_examples=150, deadline=None)
@given(geometry=geometries(), seed=st.integers(0, 2**32))
def test_scatter_matches_per_frame_frees(geometry, seed):
    total, max_order, span, pre_orders, _ = geometry
    (new, produced, new_rng), (ref, expected, ref_rng) = aged_pair(
        total, max_order, span, pre_orders, seed
    )
    assert produced == expected
    assert image(new) == image(ref)
    for name in ("instructions", "frees", "scatter_pages", "allocations"):
        assert new.stats.get(name) == ref.stats.get(name)
    # The shuffle consumed the same RNG stream.
    assert new_rng.random() == ref_rng.random()


@settings(max_examples=150, deadline=None)
@given(geometry=geometries(), seed=st.integers(0, 2**32))
def test_restructure_matches_two_pass_reference(geometry, seed):
    total, max_order, span, pre_orders, region_pages = geometry
    (new, _, _), (ref, _, _) = aged_pair(
        total, max_order, span, pre_orders, seed
    )
    runs = []
    for cls, allocator in (
        (AMNTPlusPlusRestructurer, new),
        (TwoPassRestructurer, ref),
    ):
        hooks = []
        lookups = []

        def region_of_pfn(pfn):
            lookups.append(pfn)
            return pfn // region_pages

        restructurer = cls(
            region_of_pfn=region_of_pfn,
            phase_hook=lambda allocator=allocator, hooks=hooks: hooks.append(
                image(allocator)
            ),
        )
        region = restructurer.restructure(allocator)
        runs.append(
            (region, restructurer.last_biased_region, hooks, len(lookups))
        )
    (region, last, hooks, lookups), (ref_region, ref_last, ref_hooks, _) = runs
    assert region == ref_region
    assert last == ref_last
    assert hooks == ref_hooks
    assert image(new) == image(ref)
    for name in ("instructions", "restructures", "restructure_instructions"):
        assert new.stats.get(name) == ref.stats.get(name)
    # One region lookup per free-list entry.
    assert lookups == sum(len(pfns) for pfns in new.free_area)


def test_scatter_span_larger_than_allocator():
    (new, produced, _), (ref, expected, _) = aged_pair(64, 3, 100, [], 5)
    assert produced == expected == 32
    assert image(new) == image(ref)
    assert not any(new.free_area[1:])


def test_restructure_of_full_allocator_returns_minus_one():
    allocator = BuddyAllocator(16, max_order=4)
    allocator.alloc_pages(4)
    restructurer = AMNTPlusPlusRestructurer(region_of_pfn=lambda pfn: pfn)
    assert restructurer.restructure(allocator) == -1
    assert allocator.stats.get("restructures") == 0
    assert restructurer.last_biased_region is None
