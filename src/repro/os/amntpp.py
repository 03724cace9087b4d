"""AMNT++ free-list restructuring (the paper's Section 5).

The modified OS biases the buddy allocator's free lists so that newly
allocated physical pages fall inside one subtree region — the region
with the most free chunks — maximizing the chance that every running
application works inside the same fast subtree.

Faithful to the paper's design decisions:

* the pass runs during *reclamation* (page free), never on the
  allocation fast path;
* it first scans each free list counting chunks per subtree region,
  picks the region with the most free chunks, then rebuilds the list
  with that region's chunks moved to the head (a "temporary biased
  linked list" that replaces the original);
* every scan step and list move is instruction-accounted so Table 2's
  overhead ratio can be measured rather than asserted.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Deque, Optional

from repro.os.buddy import (
    INSTRUCTIONS_PER_LIST_OP,
    INSTRUCTIONS_PER_SCAN_STEP,
    BuddyAllocator,
)


@dataclass
class AMNTPlusPlusRestructurer:
    """Reclamation-time free-list reordering toward one subtree region.

    ``region_of_pfn`` maps a physical frame number to its subtree
    region index (derived from the BMT geometry: frame address divided
    by the per-region coverage). ``reclaim_interval`` throttles how
    often the pass actually runs — Linux reclamation is batched, and
    running the scan on every single free would overstate its cost.
    """

    region_of_pfn: Callable[[int], int]
    reclaim_interval: int = 64
    _frees_since_restructure: int = 0
    last_biased_region: Optional[int] = None
    #: Optional fault-injection callback fired at the crash windows of
    #: the restructuring pass (see repro.faults). The pass only mutates
    #: volatile OS state, but campaigns still crash here to prove the
    #: secure-memory image survives mid-migration power loss.
    phase_hook: Optional[Callable[[], None]] = None

    def on_free(self, allocator: BuddyAllocator) -> bool:
        """Hook called by the memory manager after each ``free_pages``.

        Returns True when a restructuring pass ran.
        """
        self._frees_since_restructure += 1
        if self._frees_since_restructure < self.reclaim_interval:
            return False
        self._frees_since_restructure = 0
        self.restructure(allocator)
        return True

    def restructure(self, allocator: BuddyAllocator) -> int:
        """Scan, pick the most-free region, bias every list toward it.

        Returns the chosen region index. Instructions are charged to
        the allocator's registry under ``restructure_instructions`` as
        well as the shared ``instructions`` counter, so the modified
        OS's extra work is separable.
        """
        if self.phase_hook is not None:
            self.phase_hook()  # reclamation pass begins
        # One region lookup per free-list entry, kept for the rebuild.
        regions = [
            list(map(self.region_of_pfn, pfns)) for pfns in allocator.free_area
        ]
        region_chunks = Counter(chain.from_iterable(regions))
        scan_steps = sum(region_chunks.values())
        self._charge(allocator, scan_steps * INSTRUCTIONS_PER_SCAN_STEP)
        if not region_chunks:
            return -1
        # Most free chunks wins; ties resolve to the lowest region index
        # for determinism.
        best_region = min(
            region_chunks, key=lambda region: (-region_chunks[region], region)
        )
        if self.phase_hook is not None:
            self.phase_hook()  # mid-pass: target chosen, lists not yet rebuilt
        moves = 0
        for order, order_regions in enumerate(regions):
            biased: Deque[int] = deque()
            rest: Deque[int] = deque()
            for pfn, region in zip(allocator.free_area[order], order_regions):
                if region == best_region:
                    biased.append(pfn)
                else:
                    rest.append(pfn)
            moves += len(biased)
            biased.extend(rest)
            allocator.free_area[order] = biased
        self._charge(allocator, moves * INSTRUCTIONS_PER_LIST_OP)
        allocator.stats.add("restructures")
        self.last_biased_region = best_region
        return best_region

    @staticmethod
    def _charge(allocator: BuddyAllocator, instructions: int) -> None:
        allocator.stats.add("instructions", instructions)
        allocator.stats.add("restructure_instructions", instructions)
