"""Tests for the fully succinct static Wavelet Trie (the Theorem 3.7 layout)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import NaiveIndexedSequence
from repro.core.static import WaveletTrie
from repro.core.succinct_static import SuccinctWaveletTrie
from repro.exceptions import (
    ImmutableStructureError,
    OutOfBoundsError,
    ValueNotFoundError,
)
from repro.storage import open_image, save_image


def engine_answers(trie, values):
    """Every query of the shared engine on one fixed probe set: the scalar
    and batch queries, and the Section 5 range algorithms."""
    n = len(values)
    rng = random.Random(7)
    distinct = sorted(set(values))
    prefixes = sorted(
        {value[:cut] for value in distinct[::3] for cut in (1, len(value) // 2)}
        | {"zzz"}
    )
    positions = [rng.randrange(n) for _ in range(40)]
    cuts = [0, n // 3, n // 2, n]
    windows = [(0, n), (n // 5, n // 2), (n // 3, n // 3 + 17), (5, 5)]
    counts = {value: trie.count(value) for value in distinct}
    prefix_counts = {prefix: trie.count_prefix(prefix) for prefix in prefixes}
    return {
        "counts": (counts, prefix_counts),
        "access": [trie.access(pos) for pos in positions],
        "access_many": trie.access_many(positions),
        "rank": [trie.rank(v, cut) for v in distinct + ["missing"] for cut in cuts],
        "rank_many": [trie.rank_many(v, cuts) for v in distinct + ["missing"]],
        "select": [trie.select(v, k) for v in distinct for k in (0, counts[v] - 1)],
        "select_many": [trie.select_many(v, range(counts[v])) for v in distinct],
        "rank_prefix": [trie.rank_prefix(p, cut) for p in prefixes for cut in cuts],
        "rank_prefix_many": [trie.rank_prefix_many(p, cuts) for p in prefixes],
        "select_prefix": [
            trie.select_prefix(p, k)
            for p in prefixes
            for k in {0, prefix_counts[p] - 1}
            if prefix_counts[p]
        ],
        "select_prefix_many": [
            trie.select_prefix_many(p, range(prefix_counts[p])) for p in prefixes
        ],
        "iter_range": [list(trie.iter_range(lo, hi)) for lo, hi in windows],
        "distinct_in_range": [trie.distinct_in_range(lo, hi) for lo, hi in windows],
        "distinct_in_range_prefix": [
            trie.distinct_in_range(lo, hi, prefix=p)
            for lo, hi in windows
            for p in prefixes
        ],
        "top_k_in_range": [trie.top_k_in_range(lo, hi, 5) for lo, hi in windows],
        "range_majority": [trie.range_majority(lo, hi) for lo, hi in windows],
        "range_majority_prefix": [
            trie.range_majority(lo, hi, prefix=p)
            for lo, hi in windows
            for p in prefixes
        ],
    }


class TestSharedEngine:
    """The succinct layout runs the pointer trie's query engine, so every
    query answers alike, in memory and after a frozen-image round trip."""

    @pytest.mark.parametrize("fixture", ["url_log", "column_values"])
    def test_every_engine_query_matches_the_pointer_trie(
        self, fixture, request, tmp_path
    ):
        values = request.getfixturevalue(fixture)
        expected = engine_answers(WaveletTrie(values), values)
        assert expected["iter_range"][0] == values
        succinct = SuccinctWaveletTrie(values)
        assert engine_answers(succinct, values) == expected
        path = tmp_path / "succinct.rwt2"
        save_image(succinct, path)
        opened = open_image(path)
        assert isinstance(opened, SuccinctWaveletTrie)
        assert engine_answers(opened, values) == expected


class TestAgainstPointerVariant:
    @pytest.fixture(scope="class")
    def pair(self, url_log):
        values = url_log[:200]
        return SuccinctWaveletTrie(values), WaveletTrie(values), values

    def test_access(self, pair):
        succinct, pointer, values = pair
        for pos in range(0, len(values), 9):
            assert succinct.access(pos) == pointer.access(pos) == values[pos]

    def test_rank_select(self, pair):
        succinct, pointer, values = pair
        for value in set(values):
            assert succinct.count(value) == pointer.count(value)
            assert succinct.rank(value, 137) == pointer.rank(value, 137)
            assert succinct.select(value, 0) == pointer.select(value, 0)

    def test_prefix_operations(self, pair):
        succinct, pointer, values = pair
        for prefix in ["http://", "http://www.s", values[0][:24], "zzz"]:
            assert succinct.rank_prefix(prefix, 180) == pointer.rank_prefix(prefix, 180)
            total = pointer.rank_prefix(prefix, len(values))
            if total:
                assert succinct.select_prefix(prefix, total - 1) == pointer.select_prefix(
                    prefix, total - 1
                )

    def test_counts_and_structure(self, pair):
        succinct, pointer, values = pair
        assert succinct.node_count() == pointer.node_count()
        assert succinct.distinct_count() == pointer.distinct_count()
        assert len(succinct) == len(values)

    def test_space_is_below_pointer_accounting(self, pair):
        succinct, pointer, _ = pair
        assert succinct.size_in_bits() < pointer.size_in_bits()
        breakdown = succinct.space_breakdown()
        assert breakdown["topology_dfuds"] > 0
        assert breakdown["bitvectors"] > 0
        # Both layouts hold the same node vector and window delimiters.
        assert succinct.bitvector_bits() == pointer.bitvector_bits()


class TestEdgeCases:
    def test_empty(self):
        trie = SuccinctWaveletTrie([])
        assert len(trie) == 0
        assert trie.rank("x", 0) == 0
        assert trie.size_in_bits() == 0
        with pytest.raises(ValueNotFoundError):
            trie.select("x", 0)

    def test_single_value(self):
        trie = SuccinctWaveletTrie(["only", "only"])
        assert trie.access(1) == "only"
        assert trie.rank("only", 2) == 2
        assert trie.select("only", 1) == 1
        assert trie.rank("other", 2) == 0

    def test_errors(self):
        trie = SuccinctWaveletTrie(["a", "b"])
        with pytest.raises(OutOfBoundsError):
            trie.access(2)
        with pytest.raises(OutOfBoundsError):
            trie.select("a", 1)
        with pytest.raises(ValueNotFoundError):
            trie.select("missing", 0)
        with pytest.raises(ImmutableStructureError):
            trie.append("c")
        with pytest.raises(ImmutableStructureError):
            trie.insert("c", 0)
        with pytest.raises(ImmutableStructureError):
            trie.delete(0)

    @given(st.lists(st.sampled_from(["a", "ab", "b", "ba/x", "c/d/e"]), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_oracle(self, values):
        succinct = SuccinctWaveletTrie(values)
        oracle = NaiveIndexedSequence(values)
        assert len(succinct) == len(values)
        for pos in range(len(values)):
            assert succinct.access(pos) == oracle.access(pos)
        for value in set(values):
            assert succinct.count(value) == oracle.count(value)
            assert succinct.rank_prefix(value[:1], len(values)) == oracle.rank_prefix(
                value[:1], len(values)
            )
