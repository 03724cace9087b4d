"""Split encryption counters (major + minor), one block per page.

Following the paper's Table 1 (and the split-counter design of Yan et
al. that it builds on): each 4 KB page owns one 64 B counter block
holding an 8-byte *major* counter and 64 seven-bit *minor* counters,
one per 64 B data block. A block's encryption counter is the
``(major, minor)`` pair, which is spatially unique (address is mixed
into the pad) and temporally unique (the minor increments every write;
on minor overflow the major increments, minors reset, and the whole
page must be re-encrypted).

The 64 x 7 bit minors pack into exactly 56 bytes, so the encoded block
is exactly 64 bytes — one metadata cache line, as the paper assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

MINOR_BITS = 7
MINOR_LIMIT = (1 << MINOR_BITS) - 1  # 127
MINORS_PER_BLOCK = 64
MAJOR_BYTES = 8
ENCODED_BYTES = MAJOR_BYTES + (MINORS_PER_BLOCK * MINOR_BITS) // 8  # 64
_PACKED_BYTES = ENCODED_BYTES - MAJOR_BYTES  # 56


def _lane_mask(lane_bits: int, field_bits: int, offset: int) -> int:
    """``field_bits`` ones at ``offset`` in every ``lane_bits`` lane of
    the 64-byte minor image."""
    lane = ((1 << field_bits) - 1) << offset
    mask = 0
    for start in range(0, MINORS_PER_BLOCK * 8, lane_bits):
        mask |= lane << start
    return mask


def _pack_steps() -> Tuple[Tuple[int, int, int], ...]:
    """Mask/shift table squeezing one minor per byte into 7-bit fields.

    ``bytes(minors)`` puts minor ``i`` at bit ``8 * i``; the packed wire
    format wants it at bit ``7 * i``. Each step closes the gap inside
    lanes twice as wide as the last: a lane holds two packed fields of
    ``field`` bits, and the upper one moves down next to the lower one
    (``(x & low) | ((x & high) >> distance)``). Six steps take 16-bit
    lanes of two minors up to one 512-bit lane of all 64; decoding runs
    the table backwards with left shifts.
    """
    steps = []
    field_bits, lane_bits = MINOR_BITS, 16
    while lane_bits <= MINORS_PER_BLOCK * 8:
        half = lane_bits // 2
        steps.append(
            (
                _lane_mask(lane_bits, field_bits, 0),
                _lane_mask(lane_bits, field_bits, half),
                half - field_bits,
            )
        )
        field_bits *= 2
        lane_bits *= 2
    return tuple(steps)


_PACK_STEPS = _pack_steps()
_UNPACK_STEPS = _PACK_STEPS[::-1]


@dataclass
class CounterBlock:
    """In-flight representation of one page's counter block."""

    major: int = 0
    minors: List[int] = field(default_factory=lambda: [0] * MINORS_PER_BLOCK)

    def __post_init__(self) -> None:
        if self.major < 0:
            raise ValueError("major counter cannot be negative")
        if len(self.minors) != MINORS_PER_BLOCK:
            raise ValueError(
                f"expected {MINORS_PER_BLOCK} minors, got {len(self.minors)}"
            )
        for minor in self.minors:
            if not 0 <= minor <= MINOR_LIMIT:
                raise ValueError(f"minor counter {minor} out of 7-bit range")

    def counter_for(self, block_offset: int) -> Tuple[int, int]:
        """The (major, minor) pair encrypting block ``block_offset``."""
        return (self.major, self.minors[block_offset])

    def bump(self, block_offset: int) -> bool:
        """Advance the counter for a write to block ``block_offset``.

        Returns ``True`` when the minor overflowed — the caller must
        then re-encrypt every block in the page under the new major
        (the overflow path the split-counter design minimizes).
        """
        minor = self.minors[block_offset]
        if minor < MINOR_LIMIT:
            self.minors[block_offset] = minor + 1
            return False
        self.major += 1
        self.minors = [0] * MINORS_PER_BLOCK
        self.minors[block_offset] = 1
        return True

    # -- wire format --------------------------------------------------------

    def encode(self) -> bytes:
        """Pack into the 64-byte line stored in NVM."""
        packed = int.from_bytes(bytes(self.minors), "little")
        for low, high, distance in _PACK_STEPS:
            packed = (packed & low) | ((packed & high) >> distance)
        return self.major.to_bytes(MAJOR_BYTES, "little") + packed.to_bytes(
            _PACKED_BYTES, "little"
        )

    @classmethod
    def decode(cls, raw: bytes) -> "CounterBlock":
        """Unpack a 64-byte line (zero-filled lines decode to zeros)."""
        if len(raw) != ENCODED_BYTES:
            raise ValueError(f"counter block must be {ENCODED_BYTES} bytes")
        packed = int.from_bytes(raw[MAJOR_BYTES:], "little")
        for low, high, distance in _UNPACK_STEPS:
            packed = (packed & low) | ((packed << distance) & high)
        return _unchecked(
            cls,
            int.from_bytes(raw[:MAJOR_BYTES], "little"),
            list(packed.to_bytes(MINORS_PER_BLOCK, "little")),
        )

    def copy(self) -> "CounterBlock":
        return _unchecked(CounterBlock, self.major, list(self.minors))

    def is_zero(self) -> bool:
        """True for a freshly initialized (never written) page."""
        return self.major == 0 and not any(self.minors)


def _unchecked(cls: type, major: int, minors: List[int]) -> CounterBlock:
    """Build a block whose fields are in range by construction, skipping
    the constructor's per-minor validation (decode masks every minor to
    7 bits and reads an unsigned major; copy clones a valid block)."""
    block = object.__new__(cls)
    block.major = major
    block.minors = minors
    return block
