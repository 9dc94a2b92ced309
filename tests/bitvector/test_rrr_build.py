"""The one-shot RRR build and :class:`IncrementalRRRBuilder` share one assembly.

Both builds encode each block's class and write its combinatorial offset
into a :class:`~repro.bits.bitbuffer.BitBuffer`; ``RRRBitVector._set_blocks``
then samples the rank and offset-position directories from the classes.
At the block and superblock boundaries, and for several block sizes and
sample rates, the two builds must write the same image sections, those
sections must match their definition (the offset stream is the blocks'
combinatorial ranks in order, zero-padded to whole words; sample ``k`` holds
the ones and the offset bits before block ``k * sample_rate``), and queries
must match a list oracle.
"""

import random

import pytest

from repro.bits import kernel
from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.codes import combinatorial_rank, offset_width_table
from repro.bitvector.rrr import IncrementalRRRBuilder, RRRBitVector

from tests.conftest import reference_rank, reference_select

# Around one block (63 bits) and one superblock (8 blocks, 504 bits).
LENGTHS = [0, 1, 62, 63, 64, 503, 504, 505, 1007, 1008, 1009, 4096, 10_001]
DENSITIES = [0.0, 0.03, 0.5, 0.97, 1.0]


class _RecordingSink:
    """Keeps the sections ``to_words_image`` writes, by name."""

    def __init__(self):
        self.sections = {}

    def add_bytes(self, name, data):
        self.sections[name] = bytes(data)

    def add_u64(self, name, values):
        self.sections[name] = kernel.as_int_list(values)

    add_i64 = add_u64


def written(vector):
    """The sections and the meta of ``vector``'s image."""
    sink = _RecordingSink()
    meta = vector.to_words_image(sink, "")
    return sink.sections, meta


def expected_image(bits, block_size=63, sample_rate=8):
    """The sections and meta an RRR image of ``bits`` holds, by definition."""
    widths = offset_width_table(block_size)
    classes, sample_rank, sample_pos = [], [], []
    offset_bits = ""
    ones = 0
    for block_index, start in enumerate(range(0, len(bits), block_size)):
        block = bits[start : start + block_size]
        if block_index % sample_rate == 0:
            sample_rank.append(ones)
            sample_pos.append(len(offset_bits))
        block_class = sum(block)
        # A short last block is read as if padded with zeros.
        value = int("".join(map(str, block)).ljust(block_size, "0"), 2)
        if widths[block_class]:
            rank = combinatorial_rank(value, block_size, block_class)
            offset_bits += format(rank, f"0{widths[block_class]}b")
        classes.append(block_class)
        ones += block_class
    offsets = int(offset_bits, 2) if offset_bits else 0
    sections = {
        "cls": bytes(classes),
        "off": kernel.as_int_list(kernel.pack_value(offsets, len(offset_bits))),
        "srank": sample_rank,
        "spos": sample_pos,
    }
    meta = {
        "length": len(bits),
        "block_size": block_size,
        "sample_rate": sample_rate,
        "ones": ones,
        "offset_len": len(offset_bits),
    }
    return sections, meta


def build_incrementally(bits, step, **params):
    payload = Bits.from_iterable(bits)
    builder = IncrementalRRRBuilder(
        kernel.pack_value(payload.value, len(payload)),
        len(payload),
        **params,
    )
    while not builder.done:
        assert builder.encode_blocks(step) >= 1
    return builder.finish()


def random_bits(rng, length, density):
    return [1 if rng.random() < density else 0 for _ in range(length)]


def check_queries(vector, bits, rng):
    assert vector.to_list() == bits
    for pos in sorted({0, len(bits)} | {rng.randint(0, len(bits)) for _ in range(20)}):
        for bit in (0, 1):
            assert vector.rank(bit, pos) == reference_rank(bits, bit, pos)
        if pos < len(bits):
            assert vector.access(pos) == bits[pos]
    for bit in (0, 1):
        total = bits.count(bit)
        for idx in sorted({0, total // 3, total - 1} & set(range(total))):
            assert vector.select(bit, idx) == reference_select(bits, bit, idx)


@pytest.mark.parametrize("length", LENGTHS)
def test_both_builds_write_the_defined_image(length):
    rng = random.Random(length)
    for density in DENSITIES:
        bits = random_bits(rng, length, density)
        expected = expected_image(bits)
        assert written(RRRBitVector(bits)) == expected, density
        assert written(RRRBitVector(Bits.from_iterable(bits))) == expected, density
        for step in (1, 7):
            assert written(build_incrementally(bits, step)) == expected, (density, step)


@pytest.mark.parametrize("sample_rate", [1, 3, 32])
@pytest.mark.parametrize("block_size", [1, 2, 15, 31, 63])
def test_block_sizes_and_sample_rates(block_size, sample_rate):
    rng = random.Random(block_size * 100 + sample_rate)
    # Random bits, then long runs: classes 0 and block_size appear too.
    bits = random_bits(rng, 700, 0.3) + [1] * 200 + [0] * 150 + random_bits(rng, 77, 0.8)
    params = {"block_size": block_size, "sample_rate": sample_rate}
    expected = expected_image(bits, **params)
    direct = RRRBitVector(bits, **params)
    incremental = build_incrementally(bits, 5, **params)
    assert written(direct) == expected
    assert written(incremental) == expected
    check_queries(direct, bits, rng)
    check_queries(incremental, bits, rng)


@pytest.mark.parametrize("chunk", [7, 64, 200])
def test_a_payload_still_filling_encodes_only_whole_blocks(chunk):
    """A producer appends the payload while the builder encodes it, as a
    tier freeze does: each step encodes only the blocks that lie wholly in
    the words already written, and the result is the one-shot build's."""
    rng = random.Random(chunk)
    bits = random_bits(rng, 1500, 0.4)
    buffer = BitBuffer()
    builder = IncrementalRRRBuilder(buffer.full_words, len(bits))
    for start in range(0, len(bits), chunk):
        buffer.extend(bits[start : start + chunk])
        available = 64 * len(buffer.full_words)
        builder.encode_blocks(1000, available)
        assert builder.pending_bits == len(bits) - 63 * (available // 63)
    # The payload is complete: hand the builder its final, padded word.
    builder.words = buffer.words()
    assert written(builder.finish()) == expected_image(bits)
