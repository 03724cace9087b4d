"""Split counters: encode/decode, bumping, overflow."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.counters import (
    ENCODED_BYTES,
    MINOR_LIMIT,
    MINORS_PER_BLOCK,
    CounterBlock,
)


class TestConstruction:
    def test_defaults_are_zero(self):
        block = CounterBlock()
        assert block.major == 0
        assert block.minors == [0] * 64
        assert block.is_zero()

    def test_encoded_width_is_one_line(self):
        # 8 B major + 64 x 7 b minors = exactly 64 B.
        assert ENCODED_BYTES == 64
        assert len(CounterBlock().encode()) == 64

    def test_rejects_wrong_minor_count(self):
        with pytest.raises(ValueError):
            CounterBlock(minors=[0] * 63)

    def test_rejects_out_of_range_minor(self):
        with pytest.raises(ValueError):
            CounterBlock(minors=[128] + [0] * 63)

    def test_rejects_negative_major(self):
        with pytest.raises(ValueError):
            CounterBlock(major=-1)


class TestBump:
    def test_bump_increments_one_minor(self):
        block = CounterBlock()
        overflowed = block.bump(5)
        assert not overflowed
        assert block.minors[5] == 1
        assert block.minors[4] == 0
        assert block.major == 0

    def test_counter_for_reads_pair(self):
        block = CounterBlock(major=3)
        block.bump(7)
        assert block.counter_for(7) == (3, 1)

    def test_overflow_bumps_major_and_resets(self):
        block = CounterBlock(minors=[MINOR_LIMIT] * MINORS_PER_BLOCK)
        overflowed = block.bump(0)
        assert overflowed
        assert block.major == 1
        assert block.minors[0] == 1  # the write that overflowed counts
        assert all(minor == 0 for minor in block.minors[1:])

    def test_127_bumps_then_overflow(self):
        block = CounterBlock()
        for _ in range(MINOR_LIMIT):
            assert not block.bump(9)
        assert block.bump(9)  # the 128th write overflows


class TestCopy:
    def test_copy_is_independent(self):
        block = CounterBlock()
        clone = block.copy()
        clone.bump(0)
        assert block.minors[0] == 0


class TestWireFormat:
    def test_zero_line_decodes_to_zero_block(self):
        assert CounterBlock.decode(bytes(64)).is_zero()

    def test_decode_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            CounterBlock.decode(bytes(63))

    @given(
        major=st.integers(min_value=0, max_value=2**64 - 1),
        minors=st.lists(
            st.integers(min_value=0, max_value=MINOR_LIMIT),
            min_size=64,
            max_size=64,
        ),
    )
    def test_encode_decode_roundtrip(self, major, minors):
        block = CounterBlock(major=major, minors=minors)
        assert CounterBlock.decode(block.encode()) == block

    def test_distinct_blocks_encode_distinct(self):
        one = CounterBlock()
        other = CounterBlock()
        other.bump(0)
        assert one.encode() != other.encode()


# ----------------------------------------------------------------------
# codec oracle: the original per-minor loops
# ----------------------------------------------------------------------


def reference_encode(major, minors):
    """Pack minors one at a time, last minor in the highest bits."""
    packed = 0
    for minor in reversed(minors):
        packed = (packed << 7) | minor
    return major.to_bytes(8, "little") + packed.to_bytes(56, "little")


def reference_decode(raw):
    """Unpack minors one at a time from the low end; ``(major, minors)``."""
    major = int.from_bytes(raw[:8], "little")
    packed = int.from_bytes(raw[8:], "little")
    minors = []
    for _ in range(64):
        minors.append(packed & 0x7F)
        packed >>= 7
    return major, minors


majors = st.integers(min_value=0, max_value=2**64 - 1)
valid_minors = st.lists(
    st.integers(min_value=0, max_value=MINOR_LIMIT), min_size=64, max_size=64
)


class TestCodecOracle:
    @given(major=majors, minors=valid_minors)
    def test_encode_matches_reference(self, major, minors):
        block = CounterBlock(major=major, minors=minors)
        assert block.encode() == reference_encode(major, minors)

    @given(raw=st.binary(min_size=ENCODED_BYTES, max_size=ENCODED_BYTES))
    def test_decode_matches_reference_on_any_line(self, raw):
        block = CounterBlock.decode(raw)
        assert (block.major, block.minors) == reference_decode(raw)
        assert block.encode() == raw  # the codec is a bijection on lines

    @given(raw=st.binary(min_size=ENCODED_BYTES, max_size=ENCODED_BYTES))
    def test_decoded_blocks_pass_the_constructor(self, raw):
        # decode and copy skip validation; this is why that is sound.
        block = CounterBlock.decode(raw)
        for candidate in (block, block.copy()):
            assert type(candidate) is CounterBlock
            assert CounterBlock(candidate.major, list(candidate.minors)) == candidate

    def test_copy_does_not_share_minors(self):
        block = CounterBlock.decode(bytes(range(64)))
        clone = block.copy()
        clone.minors[0] ^= 1
        assert block.minors[0] != clone.minors[0]

    def test_extreme_lines(self):
        for raw in (bytes(64), b"\xff" * 64, bytes(8) + b"\xff" * 56):
            block = CounterBlock.decode(raw)
            assert (block.major, block.minors) == reference_decode(raw)
            assert block.encode() == raw

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError):
            CounterBlock(minors=[128] * 64)
        with pytest.raises(ValueError):
            CounterBlock(major=-1)
