"""Tests for the Section 6 probabilistically balanced dynamic Wavelet Tree
(Theorem 6.2)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import OutOfBoundsError
from repro.wavelet import BalancedDynamicWaveletTree
from repro.workloads import IntegerSequenceGenerator


class TestBalancedDynamicWaveletTree:
    def test_basic_sequence_operations(self):
        tree = BalancedDynamicWaveletTree(universe=2 ** 20)
        data = [5, 1000, 5, 99999, 5, 1000]
        for value in data:
            tree.append(value)
        assert tree.to_list() == data
        assert tree.rank(5, 5) == 3
        assert tree.select(1000, 1) == 5
        assert tree.count(99999) == 1
        tree.insert(7, 0)
        assert tree.access(0) == 7
        assert tree.delete(0) == 7
        assert tree.to_list() == data

    def test_out_of_universe_rejected(self):
        tree = BalancedDynamicWaveletTree(universe=100)
        with pytest.raises(OutOfBoundsError):
            tree.append(100)
        with pytest.raises(OutOfBoundsError):
            tree.rank(-1, 0)

    def test_universe_validation(self):
        with pytest.raises(ValueError):
            BalancedDynamicWaveletTree(universe=1)

    def test_hash_is_invertible(self):
        tree = BalancedDynamicWaveletTree(universe=2 ** 32, seed=5)
        rng = random.Random(8)
        values = [rng.randrange(2 ** 32) for _ in range(50)]
        for value in values:
            assert tree._unhash(tree._hash(value)) == value

    def test_theorem_6_2_height_bound(self):
        """The observed height stays near (alpha+2) log|Sigma| despite a 2^64 universe."""
        generator = IntegerSequenceGenerator(
            universe=2 ** 64, alphabet_size=128, clustered=True, seed=3
        )
        values = generator.generate(1200)
        tree = BalancedDynamicWaveletTree(universe=2 ** 64, values=values, seed=11)
        distinct = tree.distinct_count()
        assert distinct > 64
        bound = tree.theoretical_height_bound(alpha=2.0)
        assert tree.max_height() <= bound
        # And dramatically below the universe depth of 64.
        assert tree.max_height() <= 32

    def test_different_seeds_same_answers(self):
        values = [3, 7, 3, 11, 3]
        for seed in (1, 2, 3):
            tree = BalancedDynamicWaveletTree(universe=64, values=values, seed=seed)
            assert tree.to_list() == values
            assert tree.count(3) == 3

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 40 - 1), max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip_huge_universe(self, values):
        tree = BalancedDynamicWaveletTree(universe=2 ** 40, seed=9)
        for value in values:
            tree.append(value)
        assert tree.to_list() == values
        for value in set(values):
            assert tree.count(value) == values.count(value)

    def test_pathological_alphabet_stays_balanced(self):
        """Powers of two (a caterpillar for the raw trie) are balanced once hashed.

        The raw MSB-first encoding of {2^k} produces a trie of height ~|Sigma|
        because every value branches off the all-zeros spine at its own depth;
        the hashed tree must stay near (alpha+2) log|Sigma| instead.
        """
        import random as _random

        rng = _random.Random(7)
        alphabet = [1 << k for k in range(60)]
        values = [rng.choice(alphabet) for _ in range(1500)]
        tree = BalancedDynamicWaveletTree(universe=2 ** 64, values=values, seed=5)
        assert tree.to_list() == values
        assert tree.max_height() <= tree.theoretical_height_bound(alpha=2.0)
        assert tree.max_height() < 30  # far below the |Sigma| ~ 60 raw height

    def test_pathological_alphabet_unbalanced_without_hashing(self):
        """The same alphabet on the raw codec degenerates (the Section 6 motivation)."""
        import random as _random

        from repro.core.dynamic import DynamicWaveletTrie
        from repro.tries.binarize import FixedWidthIntCodec

        rng = _random.Random(7)
        alphabet = [1 << k for k in range(60)]
        values = [rng.choice(alphabet) for _ in range(400)]
        trie = DynamicWaveletTrie(values, codec=FixedWidthIntCodec(64))
        heights = [trie.height_of(value) for value in set(values)]
        assert max(heights) >= len(set(values)) - 1
