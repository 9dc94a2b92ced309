"""Tests for the naive oracle, and the agreement of every trie flavour with it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import NaiveIndexedSequence
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.exceptions import OutOfBoundsError, ReproError


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
