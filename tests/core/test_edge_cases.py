"""Edge-case behaviour shared by all three Wavelet Trie variants.

These tests pin down behaviour at the boundaries of the input domain: empty
strings, single-character and very long values, non-ASCII text, values that
differ only in their last bit, and the error paths of the binarisation codecs
(a rejected key is checked on the opened and tiered flavours too).
"""

import random
import re

import pytest

from repro.baselines import NaiveIndexedSequence
from repro.bits.bitstring import Bits
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.exceptions import BinarizationError, OutOfBoundsError, ValueNotFoundError
from repro.storage import dumps, loads
from repro.tries.binarize import BytesCodec, FixedWidthIntCodec, Utf8Codec

ALL_VARIANTS = [WaveletTrie, AppendOnlyWaveletTrie, DynamicWaveletTrie]


@pytest.mark.parametrize("cls", ALL_VARIANTS)
class TestBoundaryValues:
    def test_empty_string_is_a_valid_value(self, cls):
        values = ["", "a", "", "ab", ""]
        trie = cls(values)
        assert trie.to_list() == values
        assert trie.count("") == 3
        assert trie.select("", 2) == 4
        assert trie.rank("", 3) == 2

    def test_single_character_alphabet(self, cls):
        values = list("abcabcabc")
        trie = cls(values)
        assert trie.to_list() == values
        assert trie.distinct_count() == 3
        for char in "abc":
            assert trie.count(char) == 3

    def test_very_long_strings(self, cls):
        long_a = "x" * 5000 + "a"
        long_b = "x" * 5000 + "b"
        values = [long_a, long_b, long_a]
        trie = cls(values)
        assert trie.access(2) == long_a
        assert trie.rank(long_a, 3) == 2
        # The shared 5000-character prefix collapses into a single trie label.
        assert trie.node_count() == 3
        assert trie.rank_prefix("x" * 5000, 3) == 3

    def test_values_differing_only_in_last_character(self, cls):
        values = ["prefix/a", "prefix/b", "prefix/a", "prefix/c"]
        trie = cls(values)
        assert trie.to_list() == values
        assert trie.rank_prefix("prefix/", 4) == 4
        assert trie.select_prefix("prefix/", 3) == 3

    def test_non_ascii_text(self, cls):
        values = ["città/è", "città/à", "日本語/テスト", "città/è", "🦀/🐍"]
        trie = cls(values)
        assert trie.to_list() == values
        assert trie.count("città/è") == 2
        assert trie.rank_prefix("città/", 5) == 3
        assert trie.rank_prefix("日本語", 5) == 1

    def test_whitespace_and_punctuation(self, cls):
        values = ["a b\tc", "a b", " leading", "trailing ", "a b\tc"]
        trie = cls(values)
        assert trie.to_list() == values
        assert trie.count("a b\tc") == 2
        assert trie.rank_prefix("a b", 5) == 3

    def test_queries_on_absent_values(self, cls, url_log):
        trie = cls(url_log[:50])
        assert trie.rank("http://never-seen.example/", 50) == 0
        assert trie.rank_prefix("ftp://", 50) == 0
        assert not trie.contains("http://never-seen.example/")
        with pytest.raises(ValueNotFoundError):
            trie.select("http://never-seen.example/", 0)
        with pytest.raises(ValueNotFoundError):
            trie.select_prefix("ftp://", 0)

    def test_select_beyond_occurrences(self, cls):
        trie = cls(["x", "y", "x"])
        with pytest.raises(OutOfBoundsError):
            trie.select("x", 2)
        with pytest.raises(OutOfBoundsError):
            trie.select_prefix("x", 2)

    def test_rank_position_bounds(self, cls):
        trie = cls(["x", "y"])
        assert trie.rank("x", 2) == 1
        with pytest.raises(OutOfBoundsError):
            trie.rank("x", 3)
        with pytest.raises(OutOfBoundsError):
            trie.rank("x", -1)

    def test_codec_rejects_wrong_types(self, cls):
        trie = cls(["a"])
        with pytest.raises(BinarizationError):
            trie.rank(123, 1)

    @pytest.mark.parametrize("values", [[1, True], [1, 1.0]])
    def test_codec_checks_values_equal_to_an_accepted_one(self, cls, values):
        # True == 1 == 1.0, but only the int is a FixedWidthIntCodec value.
        with pytest.raises(BinarizationError):
            cls(values, codec=FixedWidthIntCodec(4))
        if cls is not WaveletTrie:  # the growable tries also batch-append
            trie = cls(codec=FixedWidthIntCodec(4))
            with pytest.raises(BinarizationError):
                trie.extend(values)
            assert trie.to_list() == []

    def test_bytes_codec_accepts_unhashable_bytearray(self, cls):
        values = [bytearray(b"ab"), b"ab", bytearray(b"a")]
        trie = cls(values, codec=BytesCodec())
        assert trie.node_count() == 3
        assert trie.to_list() == [b"ab", b"ab", b"a"]
        assert list(trie.iter_range(0, 3)) == [b"ab", b"ab", b"a"]

    def test_utf8_codec_rejects_nul(self, cls):
        with pytest.raises(BinarizationError):
            cls(["contains\x00nul"])

    def test_bytes_codec_accepts_nul(self, cls):
        values = [b"\x00", b"\x00\x00", b"\x00", b"a\x00b"]
        trie = cls(values, codec=BytesCodec())
        assert trie.to_list() == values
        assert trie.count(b"\x00") == 2
        assert trie.rank_prefix(b"\x00", 4) == 3  # b"\x00" and b"\x00\x00" share the prefix

    def test_matches_oracle_on_pathological_prefix_chain(self, cls):
        # A chain of values where each is one character longer than the last:
        # the trie degenerates to maximum height relative to |Sset|.
        values = []
        for length in range(1, 15):
            values.extend(["a" * length + "!"] * 2)
        trie = cls(values)
        oracle = NaiveIndexedSequence(values)
        for pos in range(len(values)):
            assert trie.access(pos) == oracle.access(pos)
        for length in range(1, 15):
            prefix = "a" * length
            assert trie.rank_prefix(prefix, len(values)) == oracle.rank_prefix(
                prefix, len(values)
            )


class TestStaticSpecific:
    @pytest.mark.parametrize("order", [("0", "01"), ("01", "0")])
    def test_builder_rejects_a_prefix_in_either_order(self, order):
        with pytest.raises(BinarizationError):
            WaveletTrie.from_bits_sequence([Bits.from_string(bits) for bits in order])

    def test_mixed_length_huge_sequence_digest(self):
        # A mildly larger build to exercise RRR block boundaries (63-bit blocks).
        values = [f"k{i % 97:02d}" for i in range(4000)]
        trie = WaveletTrie(values)
        assert trie.count("k00") == len([v for v in values if v == "k00"])
        assert trie.access(3999) == values[3999]
        assert trie.rank("k42", 2000) == values[:2000].count("k42")

    def test_succinct_breakdown_consistent_across_kinds(self, url_log):
        values = url_log[:150]
        for kind in ("rrr", "plain"):
            trie = WaveletTrie(values, bitvector=kind)
            breakdown = trie.succinct_space_breakdown()
            assert breakdown["total"] == sum(
                bits for key, bits in breakdown.items() if key != "total"
            )
            assert breakdown["labels"] == trie.label_bits()


class TestDynamicSpecific:
    def test_interleaved_empty_string_updates(self):
        trie = DynamicWaveletTrie()
        trie.append("a")
        trie.insert("", 0)
        trie.insert("", 2)
        trie.append("b")
        assert trie.to_list() == ["", "a", "", "b"]
        assert trie.delete(0) == ""
        assert trie.to_list() == ["a", "", "b"]
        assert trie.count("") == 1

    def test_delete_every_other_element(self, url_log):
        values = url_log[:60]
        trie = DynamicWaveletTrie(values)
        expected = list(values)
        for position in range(len(values) - 2, -1, -2):
            assert trie.delete(position) == expected.pop(position)
        assert trie.to_list() == expected

    def test_alphabet_shrinks_and_regrows(self):
        trie = DynamicWaveletTrie(["aa", "ab", "aa"])
        trie.delete(1)  # removes the only "ab"
        assert trie.distinct_count() == 1
        trie.append("ac")
        trie.append("ab")
        assert trie.distinct_count() == 3
        assert trie.to_list() == ["aa", "aa", "ac", "ab"]

    def test_insert_then_delete_is_identity(self, query_log):
        values = query_log[:40]
        trie = DynamicWaveletTrie(values)
        before = trie.to_list()
        trie.insert("zzz-unique", 17)
        assert trie.delete(17) == "zzz-unique"
        assert trie.to_list() == before
        assert trie.distinct_count() == len(set(values))


class TestAppendOnlySpecific:
    def test_block_size_boundary(self):
        # Append exactly around the tail-freeze boundary of the node bitvectors.
        trie = AppendOnlyWaveletTrie(block_size=64)
        values = [f"v{i % 3}" for i in range(200)]
        for value in values:
            trie.append(value)
        assert trie.to_list() == values
        assert trie.count("v0") == len([v for v in values if v == "v0"])

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            AppendOnlyWaveletTrie(block_size=16)

    def test_many_new_distinct_values(self):
        # Every append introduces a brand-new string (worst case for Init).
        trie = AppendOnlyWaveletTrie()
        values = [f"user-{i:05d}" for i in range(300)]
        for value in values:
            trie.append(value)
        assert trie.distinct_count() == 300
        assert trie.access(299) == "user-00299"
        assert trie.rank_prefix("user-0000", 300) == 10


# ----------------------------------------------------------------------
# A key the codec rejects is rejected by every flavour, at every position
# ----------------------------------------------------------------------
FLAVOURS = {
    "static": WaveletTrie,
    # The static trie as a server holds it: opened from its image.
    "opened": lambda values, **kwargs: loads(dumps(WaveletTrie(values, **kwargs))),
    "append-only": AppendOnlyWaveletTrie,
    "dynamic": DynamicWaveletTrie,
    # Five rows per tier: frozen tiers, a tier sealing, and a tail.
    "tiered": lambda values, **kwargs: TieredWaveletTrie(
        values, active_capacity=5, compact_budget=1, **kwargs
    ),
}


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
@pytest.mark.parametrize("rows", [0, 1, 23])
def test_a_rejected_key_raises_at_every_valid_rank_position(flavour, rows):
    """Rank at 0, and rank on an empty sequence, binarise the key too.

    Empty batches are not queries at a position and keep their own
    behaviour, so they are left out."""
    values = [f"/k{i % 4}/{i % 3}" for i in range(rows)]
    trie = FLAVOURS[flavour](values)
    assert len(trie) == rows
    for pos in range(rows + 1):
        for value in ("bad\x00", 5):
            with pytest.raises(BinarizationError):
                trie.rank(value, pos)
            with pytest.raises(BinarizationError):
                trie.rank_many(value, [pos, 0])
            with pytest.raises(BinarizationError):
                trie.count(value)
        with pytest.raises(BinarizationError):
            trie.rank_prefix("/k\x00", pos)
        with pytest.raises(BinarizationError):
            trie.rank_prefix_many("/k\x00", [0, pos])
        with pytest.raises(BinarizationError):
            trie.count_prefix("/k\x00")



@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_select_errors_name_the_value(flavour):
    """The binarised key is an implementation detail: errors show the value."""
    trie = FLAVOURS[flavour](["a", "b", "a"])
    absent = re.escape("value 'zz' does not occur in the sequence")
    with pytest.raises(ValueNotFoundError, match=absent):
        trie.select("zz", 0)
    with pytest.raises(ValueNotFoundError, match=absent):
        trie.select_many("zz", [0])
    for index in (5, -1):
        message = re.escape(f"select('a', {index}) out of range: only 2 occurrences")
        with pytest.raises(OutOfBoundsError, match=message):
            trie.select("a", index)
        with pytest.raises(OutOfBoundsError, match=message):
            trie.select_many("a", [index])


# ----------------------------------------------------------------------
# Keys and prefixes that leave the trie below the root, on every flavour
# ----------------------------------------------------------------------
PARTIAL_ROWS = ["app/a", "app/b", "app/cart", "blog/x", "blog", "b", "x/a", "x/\u00e9"]

# A stored key, the same plus one character and minus its last one, and a
# key that differs inside the label "app/a", "app/b" and "app/cart" share.
PARTIAL_KEYS = ["app/cart", "app/carts", "app/car", "apq/a"]

# Prefixes ending inside a label ("ap", "app/ca"), exactly at a branching
# node ("x/" under UTF-8, where the next bit splits ASCII from a multi-byte
# character; "blog" under the bytes codec, where it splits the terminator
# from the next byte's marker), a stored key plus one character, and the
# empty prefix.
PARTIAL_PREFIXES = ["ap", "app/ca", "x/", "blog", "app/carts", ""]

CODECS = {
    "utf8": (Utf8Codec, str),
    "bytes": (BytesCodec, str.encode),
}


def ends_at_a_branching_node(trie, prefix):
    """True if the binarised ``prefix`` ends exactly where a label ends
    and its node branches."""
    bits = trie.codec.prefix_to_bits(prefix)
    node, ancestors = trie._prefix_node(bits)
    depth = sum(len(above.label) + 1 for above, _ in ancestors)
    return not node.is_leaf and depth + len(node.label) == len(bits)


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_absent_and_partial_keys_match_the_oracle(flavour, codec):
    """Every key-driven read on keys that leave the trie below the root
    answers as :class:`NaiveIndexedSequence` does; a select of an absent
    value raises an error that names the value."""
    make_codec, encode = CODECS[codec]
    rng = random.Random(5)
    values = [encode(rng.choice(PARTIAL_ROWS)) for _ in range(40)]
    trie = FLAVOURS[flavour](values, codec=make_codec())
    oracle = NaiveIndexedSequence(values)
    static = WaveletTrie(values, codec=make_codec())
    assert any(
        ends_at_a_branching_node(static, encode(prefix))
        for prefix in PARTIAL_PREFIXES
    )
    n = len(values)
    positions = [0, 1, n // 2, n - 1, n]
    ranges = [(0, n), (n // 3, n // 2)]

    for key in map(encode, PARTIAL_KEYS):
        ranks = [oracle.rank(key, pos) for pos in positions]
        assert [trie.rank(key, pos) for pos in positions] == ranks, key
        assert trie.rank_many(key, positions) == ranks, key
        total = oracle.count(key)
        assert trie.count(key) == total, key
        hits = [oracle.select(key, idx) for idx in range(total)]
        assert [trie.select(key, idx) for idx in range(total)] == hits, key
        assert trie.select_many(key, range(total)) == hits, key
        error = OutOfBoundsError if total else ValueNotFoundError
        named = re.escape(repr(key))
        # The scalar out-of-range message names the index, not the value.
        with pytest.raises(error, match=None if total else named):
            trie.select(key, total)
        with pytest.raises(error, match=named):
            trie.select_many(key, [total])
        with pytest.raises(OutOfBoundsError, match=named):
            oracle.select(key, total)

    for prefix in map(encode, PARTIAL_PREFIXES):
        ranks = [oracle.rank_prefix(prefix, pos) for pos in positions]
        assert [trie.rank_prefix(prefix, pos) for pos in positions] == ranks
        assert trie.rank_prefix_many(prefix, positions) == ranks, prefix
        total = oracle.count_prefix(prefix)
        assert trie.count_prefix(prefix) == total, prefix
        hits = [oracle.select_prefix(prefix, idx) for idx in range(total)]
        assert [trie.select_prefix(prefix, i) for i in range(total)] == hits
        assert trie.select_prefix_many(prefix, range(total)) == hits, prefix
        error = OutOfBoundsError if total else ValueNotFoundError
        named = re.escape(repr(prefix))
        with pytest.raises(error, match=named):
            trie.select_prefix(prefix, total)
        with pytest.raises(error, match=named):
            trie.select_prefix_many(prefix, [total])
        with pytest.raises(OutOfBoundsError, match=named):
            oracle.select_prefix(prefix, total)
        for start, stop in ranges:
            assert trie.distinct_in_range(
                start, stop, prefix=prefix
            ) == oracle.distinct_in_range(start, stop, prefix=prefix), prefix
