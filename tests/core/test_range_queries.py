"""Tests for the Section 5 range analytics, cross-checked against the naive oracle."""

from collections import Counter

import pytest

from repro.baselines import NaiveIndexedSequence
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.db.column import CompressedColumn
from repro.exceptions import OutOfBoundsError
from repro.storage import dumps, loads
from repro.storage.shards import export_shard_images, open_worker_columns

VARIANTS = [
    ("static", lambda values: WaveletTrie(values)),
    ("append_only", lambda values: AppendOnlyWaveletTrie(values)),
    ("dynamic", lambda values: DynamicWaveletTrie(values)),
]


@pytest.fixture(scope="module", params=VARIANTS, ids=[name for name, _ in VARIANTS])
def trie_and_values(request, url_log):
    values = url_log[:220]
    _, factory = request.param
    return factory(values), NaiveIndexedSequence(values), values

RANGES = [(0, 220), (13, 140), (100, 101), (50, 50), (219, 220)]


class TestSequentialAccess:
    def test_iter_range(self, trie_and_values):
        trie, _, values = trie_and_values
        for start, stop in RANGES:
            assert list(trie.iter_range(start, stop)) == values[start:stop]

    def test_iter_range_bounds(self, trie_and_values):
        trie, _, _ = trie_and_values
        with pytest.raises(OutOfBoundsError):
            list(trie.iter_range(0, 500))
        with pytest.raises(OutOfBoundsError):
            list(trie.iter_range(10, 5))


class TestDistinct:
    def test_distinct_in_range(self, trie_and_values):
        trie, naive, values = trie_and_values
        for start, stop in RANGES:
            expected = Counter(values[start:stop])
            got = dict(trie.distinct_in_range(start, stop))
            assert got == dict(expected)

    def test_distinct_with_prefix(self, trie_and_values):
        trie, _, values = trie_and_values
        prefix = "http://www."
        for start, stop in [(0, 220), (40, 180)]:
            expected = Counter(v for v in values[start:stop] if v.startswith(prefix))
            got = dict(trie.distinct_in_range(start, stop, prefix=prefix))
            assert got == dict(expected)
        assert trie.distinct_in_range(0, 220, prefix="ftp://") == []

    def test_count_distinct(self, trie_and_values):
        trie, _, values = trie_and_values
        assert trie.count_distinct_in_range(0, 220) == len(set(values))


class TestMajorityAndFrequent:
    def test_range_majority(self, trie_and_values):
        trie, naive, values = trie_and_values
        for start, stop in RANGES:
            assert trie.range_majority(start, stop) == naive.range_majority(start, stop)

    def test_majority_exists_on_constant_range(self, trie_and_values):
        trie, _, values = trie_and_values
        # A window of size 1 always has a majority.
        assert trie.range_majority(7, 8) == (values[7], 1)

    def test_majority_with_prefix(self, trie_and_values):
        trie, naive, values = trie_and_values
        prefix = values[0].split("/")[2]
        prefix = f"http://{prefix}/"
        assert trie.range_majority(0, 220, prefix=prefix) == naive.range_majority(
            0, 220, prefix=prefix
        )

    def test_frequent_in_range(self, trie_and_values):
        trie, naive, values = trie_and_values
        for threshold in (1, 3, 10, 50):
            expected = dict(naive.frequent_in_range(0, 220, threshold))
            got = dict(trie.frequent_in_range(0, 220, threshold))
            assert got == expected
        with pytest.raises(ValueError):
            trie.frequent_in_range(0, 10, 0)

    def test_top_k(self, trie_and_values):
        trie, naive, values = trie_and_values
        for k in (1, 3, 10):
            got = trie.top_k_in_range(0, 220, k)
            counts = Counter(values)
            assert len(got) == min(k, len(counts))
            # Counts must be correct and non-increasing.
            for value, count in got:
                assert counts[value] == count
            assert all(a[1] >= b[1] for a, b in zip(got, got[1:]))
            # The returned multiset of counts matches the true top-k counts.
            expected_counts = sorted(counts.values(), reverse=True)[:k]
            assert sorted((c for _, c in got), reverse=True) == expected_counts

    def test_top_k_with_prefix(self, trie_and_values):
        trie, _, values = trie_and_values
        prefix = "http://www."
        got = trie.top_k_in_range(0, 220, 5, prefix=prefix)
        counts = Counter(v for v in values if v.startswith(prefix))
        for value, count in got:
            assert counts[value] == count

    def test_top_k_empty_cases(self, trie_and_values):
        trie, _, _ = trie_and_values
        assert trie.top_k_in_range(5, 5, 3) == []
        assert trie.top_k_in_range(0, 10, 0) == []


class TestRangeCounts:
    def test_range_count(self, trie_and_values):
        trie, naive, values = trie_and_values
        probes = [values[0], values[50], "http://never.example/"]
        for value in probes:
            for start, stop in RANGES:
                assert trie.range_count(value, start, stop) == naive.range_count(
                    value, start, stop
                )

    def test_range_count_prefix(self, trie_and_values):
        trie, naive, values = trie_and_values
        for prefix in ["http://", "http://www.s", "nothing"]:
            for start, stop in RANGES:
                assert trie.range_count_prefix(
                    prefix, start, stop
                ) == naive.range_count_prefix(prefix, start, stop)


TOP_K_VALUES = ["/a/x", "/a/y", "/b", "/a/x", "/c", "/c", "/c"]

TOP_K_IMPLEMENTATIONS = {
    "oracle": NaiveIndexedSequence,
    "static": WaveletTrie,
    "opened": lambda values: loads(dumps(WaveletTrie(values))),
    "append_only": AppendOnlyWaveletTrie,
    "dynamic": DynamicWaveletTrie,
    "tiered": lambda values: TieredWaveletTrie(values, active_capacity=3),
}


def _outcome(implementation, *args):
    """What ``top_k_in_range(*args)`` returns, or the error type and text."""
    try:
        return implementation.top_k_in_range(*args)
    except OutOfBoundsError as error:
        return ("OutOfBoundsError", str(error))


@pytest.mark.parametrize(
    "args",
    [(0, 7, -1), (0, 7, -100), (2, 5, -1), (0, 7, 0), (0, 99, 0), (0, 99, -1),
     (5, 2, 1), (0, 7, 2), (0, 7, 9), (1, 4, 1)],
)
def test_top_k_agrees_with_the_oracle_on_every_flavour(args):
    """The oracle and the five flavours answer alike: the range is checked
    first, then a negative k raises one shared OutOfBoundsError."""
    outcomes = {
        name: _outcome(factory(TOP_K_VALUES), *args)
        for name, factory in TOP_K_IMPLEMENTATIONS.items()
    }
    oracle = outcomes["oracle"]
    kinds = {name: outcome[0] if isinstance(outcome, tuple) else "ok"
             for name, outcome in outcomes.items()}
    assert len(set(kinds.values())) == 1, outcomes
    if kinds["oracle"] != "ok":
        # A range error wins over a bad k; a bad k in a good range raises
        # the one shared message.
        range_ok = 0 <= args[0] <= args[1] <= len(TOP_K_VALUES)
        assert ("non-negative" in oracle[1]) is range_ok
        if range_ok:
            assert all(outcome == oracle for outcome in outcomes.values()), outcomes
    else:
        # Equal counts come back in trie order on every flavour.
        assert all(got == oracle for got in outcomes.values()), outcomes


class TestEmptySequence:
    def test_empty_range_queries(self):
        trie = WaveletTrie([])
        assert list(trie.iter_range(0, 0)) == []
        assert trie.distinct_in_range(0, 0) == []
        assert trie.range_majority(0, 0) is None
        assert trie.top_k_in_range(0, 0, 5) == []


# 1,199 nested prefixes: a Patricia chain of height 1,198, taller than
# Python's default recursion limit.
CHAIN = ["a" * length for length in range(1, 1200)]


@pytest.mark.parametrize("factory", [f for _, f in VARIANTS], ids=[n for n, _ in VARIANTS])
def test_range_scans_on_a_trie_deeper_than_the_recursion_limit(factory):
    trie = factory(CHAIN)
    assert trie.height_of(CHAIN[-1]) == len(CHAIN) - 1
    assert list(trie.iter_range(0, len(CHAIN))) == CHAIN
    assert list(trie.iter_range(7, 1000)) == CHAIN[7:1000]
    assert trie.distinct_in_range(0, len(CHAIN)) == [(value, 1) for value in CHAIN]
    assert trie.distinct_in_range(3, 9, prefix="aaaaa") == [
        (value, 1) for value in CHAIN[4:9]
    ]
    assert trie.frequent_in_range(0, len(CHAIN), 1) == [(value, 1) for value in CHAIN]
    assert trie.frequent_in_range(0, len(CHAIN), 2) == []


def test_shard_export_of_a_trie_deeper_than_the_recursion_limit(tmp_path):
    column = CompressedColumn("chain", CHAIN, appendable=False)
    manifest = export_shard_images({"chain": column}, tmp_path, 2)
    rows = []
    for worker in range(manifest["workers"]):
        shard = open_worker_columns(tmp_path, manifest, worker)["chain"]
        rows.extend(shard.values())
    assert rows == CHAIN
