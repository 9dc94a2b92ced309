"""Topology-churn stress tests for the growable Wavelet Tries.

The paper's Section 4 structural updates -- one Patricia node split per newly
seen string (Figure 3, via ``Init``) and one merge when the last occurrence of
a string is deleted (the dagger case of Table 1) -- are exercised here under
*churn*: interleaved insert/delete/append sequences that repeatedly split and
re-merge the same nodes, cross-checked property-style against the naive
oracle on ``access``/``rank``/``select``/``rank_prefix`` and the batched
query paths after every phase.  The path cache that ``extend`` keeps across
calls must forget every path a split, a merge or emptying the trie changed.
"""

import random

import pytest

from repro.baselines import NaiveIndexedSequence
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.exceptions import ValueNotFoundError

# A small universe whose keys share long prefixes, so splits and merges keep
# hitting the same Patricia nodes: "app/le" splits the "app/l*" branch that
# "app/li" and "app/lo" share, deleting it merges the branch back, etc.
UNIVERSE = [
    "app/li", "app/lo", "app/le", "app/lemon",
    "app/x", "apricot", "banana", "band", "b",
]
PREFIX_PROBES = ["app/", "app/l", "app/le", "ap", "b", "ban", "zzz", ""]


def _cross_check(trie, naive, rng, probes=UNIVERSE):
    size = len(naive)
    assert len(trie) == size
    if size == 0:
        return
    positions = [rng.randrange(size) for _ in range(12)]
    for pos in positions:
        assert trie.access(pos) == naive.access(pos)
    # Batched access agrees with the oracle in one call.
    assert trie.access_many(positions) == [naive.access(p) for p in positions]
    rank_positions = [rng.randint(0, size) for _ in range(8)]
    for value in probes:
        assert trie.rank_many(value, rank_positions) == [
            naive.rank(value, p) for p in rank_positions
        ]
        count = naive.rank(value, size)
        if count:
            idx = rng.randrange(count)
            assert trie.select(value, idx) == naive.select(value, idx)
        else:
            with pytest.raises(ValueNotFoundError):
                trie.select(value, 0)
    for prefix in PREFIX_PROBES:
        for pos in rank_positions[:4]:
            assert trie.rank_prefix(prefix, pos) == naive.rank_prefix(prefix, pos)


class TestDynamicTrieChurn:
    def test_interleaved_insert_delete_append_split_merge(self):
        """Random churn over a prefix-sharing universe: every operation mix
        that can split a node, re-merge it, and split it again."""
        rng = random.Random(20260727)
        trie = DynamicWaveletTrie()
        naive = NaiveIndexedSequence()
        for step in range(900):
            action = rng.random()
            if action < 0.45 or len(naive) == 0:
                value = rng.choice(UNIVERSE)
                position = rng.randint(0, len(naive))
                trie.insert(value, position)
                naive.insert(value, position)
            elif action < 0.75:
                position = rng.randrange(len(naive))
                assert trie.delete(position) == naive.delete(position)
            else:
                value = rng.choice(UNIVERSE)
                trie.append(value)
                naive.append(value)
            if step % 150 == 0:
                _cross_check(trie, naive, rng)
        _cross_check(trie, naive, rng)
        # The trie's shape must equal a fresh static build of the same
        # content: no stale topology survives the churn.
        static = WaveletTrie(naive.iter_range(0, len(naive)))
        assert trie.node_count() == static.node_count()
        assert trie.distinct_count() == static.distinct_count()

    def test_repeated_split_merge_of_same_node(self):
        """Insert-then-delete the same discriminating key many times: the
        split node and its merged-back sibling must stay consistent."""
        rng = random.Random(3)
        base = ["app/li"] * 4 + ["app/lo"] * 3
        trie = DynamicWaveletTrie(base)
        naive = NaiveIndexedSequence(base)
        for cycle in range(40):
            position = rng.randint(0, len(naive))
            trie.insert("app/le", position)  # splits the shared "app/l" node
            naive.insert("app/le", position)
            _cross_check(trie, naive, rng, probes=["app/li", "app/lo", "app/le"])
            where = naive.select("app/le", 0)
            assert trie.delete(where) == naive.delete(where)  # merges it back
            assert trie.count("app/le") == 0
            _cross_check(trie, naive, rng, probes=["app/li", "app/lo", "app/le"])
        assert trie.to_list() == list(naive.iter_range(0, len(naive)))

    def test_bulk_extend_interleaved_with_churn(self):
        """extend() batches (which buffer bits and flush on topology change)
        interleaved with scalar inserts/deletes stay oracle-equal."""
        rng = random.Random(11)
        trie = DynamicWaveletTrie()
        naive = NaiveIndexedSequence()
        for phase in range(6):
            batch = [rng.choice(UNIVERSE) for _ in range(120)]
            # A brand-new key mid-batch forces a flush + split mid-extend.
            batch[60] = f"fresh/{phase}"
            trie.extend(batch)
            for value in batch:
                naive.append(value)
            for _ in range(20):
                if rng.random() < 0.5 and len(naive):
                    position = rng.randrange(len(naive))
                    assert trie.delete(position) == naive.delete(position)
                else:
                    value = rng.choice(UNIVERSE)
                    position = rng.randint(0, len(naive))
                    trie.insert(value, position)
                    naive.insert(value, position)
            _cross_check(trie, naive, rng, probes=UNIVERSE + [f"fresh/{phase}"])


class TestTieredTrieChurn:
    def test_churn_with_compaction_in_flight(self):
        """The dynamic-trie churn mix, replayed on the LSM composition with a
        tiny capacity so seals and budgeted freezes run throughout: inserts
        and deletes land in the mutable tail window, queries stay exact
        against the oracle at every checkpoint (most of them mid-freeze)."""
        rng = random.Random(20260808)
        tiered = TieredWaveletTrie(active_capacity=24, compact_budget=1)
        naive = NaiveIndexedSequence()
        for step in range(900):
            action = rng.random()
            start = tiered.mutable_start
            window = len(naive) - start
            if action < 0.45 or window == 0:
                value = rng.choice(UNIVERSE)
                position = start + rng.randint(0, window)
                tiered.insert(value, position)
                naive.insert(value, position)
            elif action < 0.70:
                position = start + rng.randrange(window)
                assert tiered.delete(position) == naive.delete(position)
            elif action < 0.90:
                value = rng.choice(UNIVERSE)
                tiered.append(value)
                naive.append(value)
            else:
                tiered.compact_step(1 + rng.randrange(8))
            if step % 150 == 0:
                _cross_check(tiered, naive, rng)
        _cross_check(tiered, naive, rng)
        assert tiered.tier_count > 1
        # Draining every freeze and merging changes no answer.
        tiered.compact(merge=True)
        _cross_check(tiered, naive, rng)
        assert tiered.to_list() == list(naive.iter_range(0, len(naive)))


class TestAppendOnlyTrieChurn:
    def test_bulk_extend_with_new_keys_mid_batch(self):
        """Append-only growth where unseen keys keep arriving mid-batch:
        every split's Init must observe the flushed counts."""
        rng = random.Random(5)
        trie = AppendOnlyWaveletTrie(block_size=64)
        naive = NaiveIndexedSequence()
        for phase in range(5):
            batch = []
            for i in range(150):
                if i % 37 == 0:
                    batch.append(f"new/{phase}/{i}")  # splits mid-batch
                else:
                    batch.append(rng.choice(UNIVERSE))
            trie.extend(batch)
            for value in batch:
                naive.append(value)
            _cross_check(trie, naive, rng)
        # Equivalent to the same content appended one element at a time.
        reference = AppendOnlyWaveletTrie(block_size=64)
        for value in naive.iter_range(0, len(naive)):
            reference.append(value)
        assert trie.to_list() == reference.to_list()
        assert trie.node_count() == reference.node_count()


# Warm the path cache, then change the topology under it (a merge, a split,
# emptying the trie) and extend again.
# "app/le" branches off above the node that tells "app/li" from "app/lo".
CACHE_SCRIPTS = {
    "merge": [
        ("extend", ["x/a", "app/li", "app/lo", "app/le"]),
        ("extend", ["app/lo", "app/le"]),
        ("delete", "app/le"),
        ("delete", "app/le"),  # the last one: its node merges away
        ("extend", ["app/le", "app/lo", "app/li"]),
    ],
    "split": [
        ("extend", ["x/a", "app/li", "app/lo"]),
        ("extend", ["app/lo", "app/li"]),
        ("extend", ["app/le"]),  # splits a node on two cached paths
        ("extend", ["app/li", "app/lo", "app/le", "app/apple", "app/li"]),
    ],
    "reset": [
        ("extend", ["x/a", "x/a"]),
        ("delete", "x/a"),
        ("delete", "x/a"),  # the trie is empty again: no root
        ("extend", ["x/a", "app/li"]),
    ],
}


def _replay_script(trie, script):
    naive = NaiveIndexedSequence()
    rng = random.Random(17)
    for action, argument in script:
        if action == "extend":
            trie.extend(argument)
            for value in argument:
                naive.append(value)
        else:
            position = naive.select(argument, 0)
            assert trie.delete(position) == naive.delete(position)
        assert trie.to_list() == list(naive.iter_range(0, len(naive)))
        _cross_check(trie, naive, rng, probes=["x/a", "app/li", "app/lo", "app/le"])


class TestPathCacheUnderTopologyChange:
    @pytest.mark.parametrize("script", sorted(CACHE_SCRIPTS))
    @pytest.mark.parametrize("cls", [DynamicWaveletTrie, TieredWaveletTrie])
    def test_extend_after_a_topology_change_under_a_warm_cache(self, cls, script):
        _replay_script(cls(), CACHE_SCRIPTS[script])

    def test_append_only_extend_after_a_split_under_a_warm_cache(self):
        _replay_script(AppendOnlyWaveletTrie(), CACHE_SCRIPTS["split"])
