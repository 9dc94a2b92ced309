"""Tests for the static Wavelet Trie (Theorem 3.7)."""

import pytest

from repro.analysis import compute_bounds
from repro.baselines import NaiveIndexedSequence
from repro.bitvector.window import BitvectorWindow
from repro.core.static import WaveletTrie
from repro.exceptions import (
    ImmutableStructureError,
    OutOfBoundsError,
    ValueNotFoundError,
)
from repro.tries.binarize import BytesCodec


class TestConstruction:
    def test_empty(self):
        trie = WaveletTrie([])
        assert len(trie) == 0
        assert trie.is_empty()
        assert trie.rank("x", 0) == 0
        assert trie.rank_prefix("x", 0) == 0
        with pytest.raises(OutOfBoundsError):
            trie.access(0)
        with pytest.raises(ValueNotFoundError):
            trie.select("x", 0)

    def test_single_value(self):
        trie = WaveletTrie(["hello"])
        assert len(trie) == 1
        assert trie.access(0) == "hello"
        assert trie.rank("hello", 1) == 1
        assert trie.select("hello", 0) == 0
        assert trie.rank("other", 1) == 0
        assert trie.distinct_count() == 1
        assert trie.node_count() == 1  # a single leaf

    def test_constant_sequence(self):
        trie = WaveletTrie(["x"] * 50)
        assert trie.count("x") == 50
        assert trie.select("x", 49) == 49
        assert trie.access(31) == "x"
        assert trie.node_count() == 1

    def test_two_distinct_values(self):
        trie = WaveletTrie(["aa", "ab", "aa"])
        assert trie.node_count() == 3
        assert trie.access(1) == "ab"
        assert trie.rank("aa", 3) == 2

    def test_unknown_bitvector_kind(self):
        with pytest.raises(ValueError):
            WaveletTrie(["a"], bitvector="huffman")

    def test_bytes_codec(self):
        values = [b"\x00\x01", b"\x00", b"\xff\x00\xff", b"\x00\x01"]
        trie = WaveletTrie(values, codec=BytesCodec())
        assert trie.to_list() == values
        assert trie.rank(b"\x00\x01", 4) == 2
        assert trie.select(b"\xff\x00\xff", 0) == 2

    def test_iteration_and_getitem(self, url_log):
        trie = WaveletTrie(url_log[:50])
        assert list(trie) == url_log[:50]
        assert trie[10] == url_log[10]
        assert trie[-1] == url_log[49]
        assert url_log[0] in trie
        assert "http://nope.example/" not in trie


class TestQueriesAgainstOracle:
    @pytest.fixture(scope="class")
    def pair(self, url_log):
        values = url_log[:250]
        return WaveletTrie(values), NaiveIndexedSequence(values), values

    def test_access(self, pair):
        trie, naive, values = pair
        for pos in range(0, len(values), 7):
            assert trie.access(pos) == naive.access(pos)

    def test_rank_select(self, pair):
        trie, naive, values = pair
        for value in set(values):
            total = naive.count(value)
            assert trie.count(value) == total
            for pos in (0, len(values) // 3, len(values)):
                assert trie.rank(value, pos) == naive.rank(value, pos)
            for idx in range(0, total, max(1, total // 4)):
                assert trie.select(value, idx) == naive.select(value, idx)

    def test_select_out_of_range(self, pair):
        trie, naive, values = pair
        value = values[0]
        with pytest.raises(OutOfBoundsError):
            trie.select(value, naive.count(value))
        with pytest.raises(ValueNotFoundError):
            trie.select("http://never-seen.example/x", 0)

    def test_rank_of_absent_value(self, pair):
        trie, _, values = pair
        assert trie.rank("http://never-seen.example/x", len(values)) == 0
        # A value that is a strict prefix of stored values is also absent.
        prefix_like = values[0].rsplit("/", 1)[0]
        if prefix_like not in values:
            assert trie.rank(prefix_like, len(values)) == 0

    def test_positions_iterator(self, pair):
        trie, naive, values = pair
        value = values[1]
        assert list(trie.positions(value)) == [
            i for i, v in enumerate(values) if v == value
        ]

    def test_heights(self, pair):
        trie, _, values = pair
        heights = [trie.height_of(value) for value in set(values)]
        assert all(h >= 1 for h in heights)
        average = trie.average_height()
        assert 0 < average <= max(heights)
        # Definition 3.4: h~ n equals the total bitvector length.
        total_bits = sum(
            len(node.bitvector) for node in trie.nodes() if not node.is_leaf
        )
        assert abs(average * len(values) - total_bits) < 1e-6


class TestImmutability:
    def test_updates_rejected(self):
        trie = WaveletTrie(["a", "b"])
        with pytest.raises(ImmutableStructureError):
            trie.append("c")
        with pytest.raises(ImmutableStructureError):
            trie.insert("c", 0)
        with pytest.raises(ImmutableStructureError):
            trie.delete(0)


class TestSpaceAccounting:
    def test_bitvector_kinds_sizes(self, column_values):
        sizes = {}
        for kind in ("rrr", "plain", "rle"):
            trie = WaveletTrie(column_values, bitvector=kind)
            assert trie.to_list() == column_values
            sizes[kind] = trie.bitvector_bits()
        # For skewed data the RRR node bitvectors win over the plain ones;
        # RLE pays a per-node sampling overhead that matters on the short
        # bitvectors of this small workload, so only a loose factor is
        # asserted there.
        assert sizes["rrr"] < sizes["plain"]
        assert sizes["rle"] < 2.0 * sizes["plain"]

    def test_succinct_breakdown_tracks_lower_bound(self, column_values):
        trie = WaveletTrie(column_values)
        bounds = compute_bounds(column_values)
        breakdown = trie.succinct_space_breakdown()
        assert breakdown["total"] > 0
        # The node bitvector payloads should be within a modest factor of nH0
        # (RRR pays ~6 bits of class information per 63-bit block).
        assert breakdown["bitvectors"] <= 3.0 * bounds.entropy_bits + 4096
        # Labels measured on the trie equal |L| from the bounds computation.
        assert breakdown["labels"] == bounds.label_bits
        # And the whole structure fits well below the raw input size.
        assert breakdown["total"] < bounds.total_input_bits * 1.1 + 4096

    def test_empty_breakdown(self):
        assert WaveletTrie([]).succinct_space_breakdown()["total"] == 0


class TestOneNodeVector:
    """Every static trie keeps all internal nodes' bits in one vector, in
    preorder: built, frozen, flattened or opened from an image."""

    @staticmethod
    def assert_windows_tile(trie, vector):
        start = 0
        for node in trie.nodes():
            if node.is_leaf:
                continue
            window = node.bitvector
            assert isinstance(window, BitvectorWindow)
            assert window.start == start
            start += len(window)
        assert start == len(vector)

    @pytest.mark.parametrize("kind", ["rrr", "plain", "rle"])
    def test_built_and_opened_tries(self, kind, url_log):
        from repro.storage import dumps, loads

        trie = WaveletTrie(url_log[:150], bitvector=kind)
        for candidate in (trie, loads(dumps(trie))):
            self.assert_windows_tile(candidate, candidate.node_bitvector)
            assert candidate.node_offsets().total == len(candidate.node_bitvector)

    def test_frozen_and_succinct_tries_share_the_builder_vector(self, url_log):
        from repro.core.append_only import AppendOnlyWaveletTrie
        from repro.core.succinct_static import SuccinctWaveletTrie
        from repro.core.tiers import freeze_trie

        values = url_log[:150]
        built = WaveletTrie(values)
        frozen = freeze_trie(AppendOnlyWaveletTrie(values))
        self.assert_windows_tile(frozen, frozen.node_bitvector)
        assert frozen.node_bitvector.to_words() == built.node_bitvector.to_words()
        succinct = SuccinctWaveletTrie.from_pointer_trie(built)
        assert succinct._bitvector is built.node_bitvector
        assert all(
            isinstance(node.bitvector, BitvectorWindow)
            for node in succinct.nodes()
            if not node.is_leaf
        )

    def test_space_charges_the_shared_vector_once(self, url_log):
        trie = WaveletTrie(url_log[:150])
        vector, offsets = trie.node_bitvector, trie.node_offsets()
        assert trie.bitvector_bits() == vector.size_in_bits() + offsets.size_in_bits()
        breakdown = trie.succinct_space_breakdown()
        assert breakdown["bitvectors"] == vector.size_in_bits()
        assert breakdown["bitvector_delimiters"] == offsets.size_in_bits()
