"""Tests for the related-work baselines (naive oracle, alphabet mapping,
B-tree index, text collection) and their documented limitations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    BTreeSequenceIndex,
    DictWaveletSequence,
    NaiveIndexedSequence,
    TextCollectionSequence,
)
from repro.baselines.btree_index import BTree
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.exceptions import (
    InvalidOperationError,
    OutOfBoundsError,
    ReproError,
    ValueNotFoundError,
)


class TestNaiveOracle:
    """The oracle itself deserves tests: everything else is compared to it."""

    def test_basic_operations(self):
        values = ["a", "b", "a", "c", "a"]
        naive = NaiveIndexedSequence(values)
        assert len(naive) == 5
        assert naive.access(2) == "a"
        assert naive.rank("a", 4) == 2
        assert naive.select("a", 2) == 4
        assert naive.rank_prefix("a", 5) == 3
        assert naive.select_prefix("a", 1) == 2
        assert naive.count("c") == 1
        with pytest.raises(OutOfBoundsError):
            naive.select("a", 3)
        with pytest.raises(OutOfBoundsError):
            naive.access(5)

    def test_updates(self):
        naive = NaiveIndexedSequence(["x"])
        naive.append("y")
        naive.insert("z", 1)
        assert naive.to_list() == ["x", "z", "y"]
        assert naive.delete(0) == "x"
        assert naive.to_list() == ["z", "y"]

    def test_range_helpers(self):
        values = ["a", "b", "a", "b", "b"]
        naive = NaiveIndexedSequence(values)
        assert naive.range_majority(0, 5) == ("b", 3)
        assert naive.range_majority(0, 4) is None
        assert dict(naive.distinct_in_range(1, 4)) == {"a": 1, "b": 2}
        assert naive.top_k_in_range(0, 5, 1) == [("b", 3)]
        assert naive.frequent_in_range(0, 5, 2) == [("a", 2), ("b", 3)]


class TestDictWaveletSequence:
    def test_matches_wavelet_trie_on_supported_ops(self, column_values):
        values = column_values[:200]
        baseline = DictWaveletSequence(values)
        trie = WaveletTrie(values)
        for pos in range(0, 200, 23):
            assert baseline.access(pos) == trie.access(pos)
        for value in set(values):
            assert baseline.count(value) == trie.count(value)
            assert baseline.select(value, 0) == trie.select(value, 0)
        for prefix in ["emea/", "amer/rome", "nope"]:
            assert baseline.rank_prefix(prefix, 150) == trie.rank_prefix(prefix, 150)

    def test_limitations(self, column_values):
        baseline = DictWaveletSequence(column_values[:50])
        # Limitation 1 (the paper's issue (a)): the alphabet cannot grow.
        with pytest.raises(InvalidOperationError):
            baseline.append("brand-new-value")

    def test_select_prefix_via_rank_binary_search(self, column_values):
        """Limitation 2 (no direct SelectPrefix) is worked around by a
        binary search over RankPrefix; answers must match the oracle and
        out-of-range indexes must raise the canonical error."""
        values = column_values[:80]
        baseline = DictWaveletSequence(values)
        naive = NaiveIndexedSequence(values)
        for prefix in ["emea/", "amer/rome", values[0], "nope"]:
            total = naive.rank_prefix(prefix, len(values))
            for idx in range(0, total, max(1, total // 4)):
                assert baseline.select_prefix(prefix, idx) == naive.select_prefix(
                    prefix, idx
                )
            with pytest.raises(OutOfBoundsError) as caught:
                baseline.select_prefix(prefix, total)
            with pytest.raises(OutOfBoundsError) as expected:
                naive.select_prefix(prefix, total)
            assert str(caught.value) == str(expected.value)

    def test_absent_values(self, column_values):
        baseline = DictWaveletSequence(column_values[:50])
        assert baseline.rank("missing", 50) == 0
        with pytest.raises(ValueNotFoundError):
            baseline.select("missing", 0)
        assert baseline.rank_prefix("zzz", 50) == 0

    def test_empty(self):
        baseline = DictWaveletSequence([])
        assert len(baseline) == 0
        assert baseline.rank("x", 0) == 0


class TestBTree:
    def test_insert_and_ordered_iteration(self):
        tree = BTree(min_degree=2)
        keys = [(f"k{i:03d}", i) for i in range(200)]
        import random

        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(key)
        assert len(tree) == 200
        assert tree.height > 1
        ordered = list(tree.iterate_from(("k", -1)))
        assert ordered == sorted(keys)
        assert ("k050", 50) in tree
        assert ("nope", 0) not in tree
        # Range scan from the middle.
        from_mid = list(tree.iterate_from(("k100", -1)))
        assert from_mid == sorted(keys)[100:]

    def test_min_degree_validation(self):
        with pytest.raises(ValueError):
            BTree(min_degree=1)


class TestBTreeSequenceIndex:
    def test_matches_oracle(self, url_log):
        values = url_log[:150]
        baseline = BTreeSequenceIndex(values, min_degree=4)
        naive = NaiveIndexedSequence(values)
        for pos in range(0, 150, 17):
            assert baseline.access(pos) == naive.access(pos)
        for value in set(values[:30]):
            assert baseline.rank(value, 100) == naive.rank(value, 100)
            assert baseline.select(value, 0) == naive.select(value, 0)
        for prefix in ["http://www.", values[0][:25], "none"]:
            assert baseline.rank_prefix(prefix, 120) == naive.rank_prefix(prefix, 120)
            total = naive.rank_prefix(prefix, 150)
            if total:
                assert baseline.select_prefix(prefix, total - 1) == naive.select_prefix(prefix, total - 1)

    def test_append_and_errors(self):
        baseline = BTreeSequenceIndex(["a", "b"])
        baseline.append("a")
        assert baseline.rank("a", 3) == 2
        with pytest.raises(OutOfBoundsError):
            baseline.select("a", 2)
        with pytest.raises(OutOfBoundsError):
            baseline.access(3)

    def test_space_is_larger_than_wavelet_trie(self, url_log):
        values = url_log[:200]
        baseline = BTreeSequenceIndex(values)
        trie = WaveletTrie(values)
        assert baseline.size_in_bits() > trie.size_in_bits()


class TestTextCollectionSequence:
    def test_matches_oracle(self, query_log):
        values = query_log[:60]
        baseline = TextCollectionSequence(values)
        naive = NaiveIndexedSequence(values)
        for pos in range(0, 60, 7):
            assert baseline.access(pos) == naive.access(pos)
        value = values[3]
        assert baseline.rank(value, 40) == naive.rank(value, 40)
        assert baseline.select(value, 0) == naive.select(value, 0)
        assert baseline.rank_prefix("weather", 50) == naive.rank_prefix("weather", 50)
        total = naive.rank_prefix("p", 60)
        if total:
            assert baseline.select_prefix("p", total - 1) == naive.select_prefix("p", total - 1)

    def test_rejects_nul(self):
        with pytest.raises(ValueError):
            TextCollectionSequence(["bad\x00value"])

    def test_empty(self):
        baseline = TextCollectionSequence([])
        assert len(baseline) == 0

    def test_string_level_compression_is_worse_than_wavelet_trie(self, url_log):
        """The paper's point about approach (2): character-level entropy only."""
        values = url_log[:300]
        baseline = TextCollectionSequence(values)
        trie = WaveletTrie(values)
        assert trie.bitvector_bits() < baseline.size_in_bits()


def error_class(call):
    """The class of the library error ``call()`` raises, or None."""
    try:
        call()
    except ReproError as error:
        return type(error)
    return None


class TestCrossImplementationAgreement:
    @given(st.lists(st.sampled_from(["a", "ab", "b", "ba", "abc"]), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_all_implementations_agree(self, values):
        implementations = [
            WaveletTrie(values),
            AppendOnlyWaveletTrie(values),
            DynamicWaveletTrie(values),
            DictWaveletSequence(values),
            BTreeSequenceIndex(values),
            TextCollectionSequence(values),
        ]
        naive = NaiveIndexedSequence(values)
        n = len(values)
        for implementation in implementations:
            assert len(implementation) == n
            for pos in range(n):
                assert implementation.access(pos) == naive.access(pos)
            for value in set(values):
                assert implementation.rank(value, n) == naive.count(value)
            for prefix in ["", "a", "ab", "b"]:
                for pos in range(n + 1):
                    assert implementation.rank_prefix(prefix, pos) == naive.rank_prefix(
                        prefix, pos
                    )
                for pos in (-1, n + 1):
                    assert error_class(
                        lambda: implementation.rank_prefix(prefix, pos)
                    ) is error_class(lambda: naive.rank_prefix(prefix, pos))
                matches = naive.rank_prefix(prefix, n)
                if not matches:
                    continue  # the tries report an absent prefix as not found
                for idx in range(matches):
                    assert implementation.select_prefix(prefix, idx) == naive.select_prefix(
                        prefix, idx
                    )
                for idx in (-1, matches):
                    assert error_class(
                        lambda: implementation.select_prefix(prefix, idx)
                    ) is error_class(lambda: naive.select_prefix(prefix, idx))
