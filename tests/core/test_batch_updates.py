"""Property tests of the trie-layer batch paths against the naive oracle.

``select_many`` and ``insert_many`` on the growable Wavelet Tries must agree
with
:class:`~repro.baselines.naive.NaiveIndexedSequence` under sustained churn --
interleaved bulk inserts, scalar deletes (which shrink the Patricia topology)
and batch queries, with previously unseen keys arriving mid-stream.  The
bulk ``extend`` and every batched query must also equal the scalar loop
they replace, structure included, and an ``extend`` holding a value the
codec rejects, or an ``insert_many`` holding one that breaks
prefix-freeness, must change nothing.
"""

import random

import pytest

from repro.baselines.naive import NaiveIndexedSequence
from repro.bits.bitstring import Bits
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.tiers import TieredWaveletTrie, freeze_trie
from repro.exceptions import (
    BinarizationError,
    InvalidOperationError,
    OutOfBoundsError,
    ValueNotFoundError,
)
from repro.tries.binarize import StringCodec


def check_against_oracle(trie, oracle, rng, probes=4):
    values = oracle.to_list()
    assert trie.to_list() == values
    for value in rng.sample(values, min(probes, len(values))):
        total = oracle.count(value)
        indexes = [rng.randrange(total) for _ in range(rng.randint(1, 12))]
        expected = [oracle.select(value, idx) for idx in indexes]
        assert trie.select_many(value, indexes) == expected


class TestDynamicTrieChurn:
    def test_insert_many_select_many_vs_naive(self):
        rng = random.Random(2026)
        keys = [f"/svc{i % 5}/route/{i}" for i in range(14)]
        trie = DynamicWaveletTrie()
        oracle = NaiveIndexedSequence()
        for round_number in range(25):
            position = rng.randint(0, len(oracle))
            # Bursts favour repeated keys; fresh keys force topology splits
            # mid-batch-stream.
            chunk = [rng.choice(keys) for _ in range(rng.randint(0, 9))]
            if round_number % 4 == 0:
                chunk.append(f"/fresh/{round_number}")
            trie.insert_many(chunk, position)
            for offset, value in enumerate(chunk):
                oracle.insert(value, position + offset)
            while len(oracle) and rng.random() < 0.35:
                victim = rng.randrange(len(oracle))
                assert trie.delete(victim) == oracle.delete(victim)
            if len(oracle):
                check_against_oracle(trie, oracle, rng)
        assert trie.to_list() == oracle.to_list()

    def test_insert_many_empty_and_bounds(self):
        trie = DynamicWaveletTrie(["/a", "/b"])
        trie.insert_many([], 1)
        assert trie.to_list() == ["/a", "/b"]
        with pytest.raises(OutOfBoundsError):
            trie.insert_many(["/c"], 3)

    def test_insert_many_matches_scalar_inserts(self):
        rng = random.Random(7)
        base = [f"/k{i % 6}" for i in range(40)]
        bulk = DynamicWaveletTrie(base)
        scalar = DynamicWaveletTrie(base)
        chunk = [rng.choice(base) for _ in range(15)] + ["/new-key"]
        position = 11
        bulk.insert_many(chunk, position)
        for offset, value in enumerate(chunk):
            scalar.insert(value, position + offset)
        assert bulk.to_list() == scalar.to_list()
        assert bulk.node_count() == scalar.node_count()


class TestAppendOnlyTrieBatch:
    def test_insert_many_end_only(self):
        trie = AppendOnlyWaveletTrie(["/a", "/b"])
        trie.insert_many(["/c", "/a"], 2)
        assert trie.to_list() == ["/a", "/b", "/c", "/a"]
        with pytest.raises(InvalidOperationError):
            trie.insert_many(["/x"], 0)

    def test_select_many_after_growth(self):
        rng = random.Random(55)
        values = [f"/page/{i % 7}" for i in range(300)]
        trie = AppendOnlyWaveletTrie()
        trie.extend(values)
        oracle = NaiveIndexedSequence(values)
        check_against_oracle(trie, oracle, rng, probes=5)


def skewed_urls(rng, n, distinct):
    keys = [f"/host{i % 17}/path/{i}" for i in range(distinct)]
    return [keys[int(distinct * rng.random() ** 2)] for _ in range(n)]


class TestBulkEqualsScalar:
    @pytest.mark.parametrize("cls", [DynamicWaveletTrie, AppendOnlyWaveletTrie])
    def test_extend_equals_appends(self, cls):
        values = skewed_urls(random.Random(2), 800, 60)
        bulk = cls()
        bulk.extend(values)
        scalar = cls()
        for value in values:
            scalar.append(value)
        assert bulk.to_list() == scalar.to_list() == values
        assert bulk.node_count() == scalar.node_count()

    def test_batched_queries_equal_scalar_queries(self):
        values = skewed_urls(random.Random(2), 800, 60)
        trie = DynamicWaveletTrie(values)
        rng = random.Random(7)
        probe, prefix = values[0], "/host3/"
        positions = [rng.randrange(len(values) + 1) for _ in range(200)]
        assert trie.rank_many(probe, positions) == [trie.rank(probe, p) for p in positions]
        assert trie.rank_prefix_many(prefix, positions) == [
            trie.rank_prefix(prefix, p) for p in positions
        ]
        cells = [rng.randrange(len(values)) for _ in range(200)]
        assert trie.access_many(cells) == [trie.access(p) for p in cells]
        indexes = [rng.randrange(trie.count(probe)) for _ in range(200)]
        assert trie.select_many(probe, indexes) == [trie.select(probe, i) for i in indexes]
        indexes = [rng.randrange(trie.count_prefix(prefix)) for _ in range(200)]
        assert trie.select_prefix_many(prefix, indexes) == [
            trie.select_prefix(prefix, i) for i in indexes
        ]


GROWABLE = {
    "dynamic": DynamicWaveletTrie,
    "append-only": AppendOnlyWaveletTrie,
    # Four rows of tail: the rejected batch below crosses a seal.
    "tiered": lambda values: TieredWaveletTrie(values, active_capacity=4),
}


def state_of(trie):
    """Everything a rejected ``extend`` must leave as it was."""
    tiers = trie.tier_info() if hasattr(trie, "tier_info") else None
    return trie.to_list(), len(trie), trie.node_count(), tiers


class TestRejectedExtendChangesNothing:
    @pytest.mark.parametrize("bad", [5, "bad\x00"])
    @pytest.mark.parametrize("flavour", sorted(GROWABLE))
    def test_a_value_the_codec_rejects_changes_nothing(self, flavour, bad):
        trie = GROWABLE[flavour](["x"])
        trie.extend(["x", "y"])  # warms the path cache
        before = state_of(trie)
        # Unseen values ahead of the bad one would split nodes and flush.
        with pytest.raises(BinarizationError):
            trie.extend(["a", "x", "b", bad])
        assert state_of(trie) == before
        for value in ("a", "b"):
            with pytest.raises(ValueNotFoundError):
                trie.select(value, 0)
        trie.extend(["a", "x", "b"])
        assert trie.to_list() == ["x", "x", "y", "a", "x", "b"]
        assert trie.select("b", 0) == 5


class UnterminatedUtf8Codec(StringCodec):
    """UTF-8 bytes with no terminator, so ``"a"`` is a prefix of ``"ab"``."""

    def to_bits(self, value):
        return Bits.from_bytes(value.encode("utf-8"))

    def from_bits(self, bits):
        return bits.to_bytes().decode("utf-8")

    def prefix_to_bits(self, prefix):
        return self.to_bits(prefix)


class TestRejectedInsertManyChangesNothing:
    """``insert_many`` splits a node for each new value before any row
    lands; a later value that breaks prefix-freeness must undo them."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda values, codec: DynamicWaveletTrie(values, codec=codec),
            lambda values, codec: TieredWaveletTrie(values, codec=codec),
        ],
        ids=["dynamic", "tiered"],
    )
    def test_a_value_breaking_prefix_freeness_changes_nothing(self, make):
        trie = make(["b", "c"], UnterminatedUtf8Codec())
        before = state_of(trie)
        with pytest.raises(BinarizationError):
            trie.insert_many(["d", "a", "ab"], 1)
        assert state_of(trie) == before
        assert trie.distinct_count() == 2
        # The frozen snapshot an image saves (a tiered trie saves its tail's):
        # every leaf receives rows.
        tail = trie._active if isinstance(trie, TieredWaveletTrie) else trie
        assert freeze_trie(tail).to_list() == ["b", "c"]
        trie.insert_many(["d", "a"], 1)
        assert trie.to_list() == ["b", "d", "a", "c"]

    def test_an_empty_trie_stays_empty(self):
        trie = DynamicWaveletTrie(codec=UnterminatedUtf8Codec())
        with pytest.raises(BinarizationError):
            trie.insert_many(["d", "a", "ab"], 0)
        assert len(trie) == 0 and trie.root is None
        trie.insert_many(["ab", "d"], 0)
        assert trie.to_list() == ["ab", "d"]
