"""Tests for the classic Wavelet Tree, including the paper's Figure 1 example."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import OutOfBoundsError
from repro.wavelet import WaveletTree


class TestFigure1:
    """The worked example of Figure 1: 'abracadabra' over {a, b, c, d, r}."""

    SYMBOLS = {"a": 0, "b": 1, "c": 2, "d": 3, "r": 4}
    TEXT = "abracadabra"

    def build(self):
        return WaveletTree([self.SYMBOLS[c] for c in self.TEXT], alphabet_size=5)

    def test_access_reconstructs_text(self):
        tree = self.build()
        inverse = {v: k for k, v in self.SYMBOLS.items()}
        assert "".join(inverse[tree.access(i)] for i in range(len(self.TEXT))) == self.TEXT

    def test_root_bitvector_matches_figure(self):
        # Figure 1 splits {a, b} (left) vs {c, d, r} (right); with the
        # balanced split over 5 symbols mid = 2, so symbols >= 2 go right:
        # a b r a c a d a b r a  ->  0 0 1 0 1 0 1 0 0 1 0
        tree = self.build()
        root_bits = [tree._root.bitvector.access(i) for i in range(len(self.TEXT))]
        assert root_bits == [0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0]

    def test_counts_match_figure(self):
        tree = self.build()
        counts = Counter(self.TEXT)
        for char, symbol in self.SYMBOLS.items():
            assert tree.count(symbol) == counts[char]

    def test_rank_select_examples(self):
        tree = self.build()
        a, r = self.SYMBOLS["a"], self.SYMBOLS["r"]
        assert tree.rank(a, 11) == 5
        assert tree.rank(a, 1) == 1
        assert tree.select(a, 0) == 0
        assert tree.select(a, 4) == 10
        assert tree.select(r, 1) == 9
        assert tree.rank(r, 3) == 1


class TestWaveletTreeGeneral:
    def test_empty(self):
        tree = WaveletTree([])
        assert len(tree) == 0
        assert tree.rank(0, 0) == 0

    def test_single_symbol_alphabet(self):
        tree = WaveletTree([0, 0, 0], alphabet_size=1)
        assert tree.access(1) == 0
        assert tree.rank(0, 3) == 3
        assert tree.select(0, 2) == 2

    def test_alphabet_size_validation(self):
        with pytest.raises(ValueError):
            WaveletTree([0, 5], alphabet_size=5)
        with pytest.raises(ValueError):
            WaveletTree([-1])
        with pytest.raises(ValueError):
            WaveletTree([0], bitvector="nope")

    def test_symbol_out_of_alphabet(self):
        tree = WaveletTree([0, 1, 2], alphabet_size=3)
        with pytest.raises(OutOfBoundsError):
            tree.rank(3, 1)
        with pytest.raises(OutOfBoundsError):
            tree.select(3, 0)

    def test_rank_of_absent_symbol_in_alphabet(self):
        tree = WaveletTree([0, 0, 2], alphabet_size=4)
        assert tree.rank(1, 3) == 0
        assert tree.rank(3, 3) == 0

    def test_height_is_logarithmic(self):
        tree = WaveletTree(list(range(64)), alphabet_size=64)
        assert tree.height() == 6

    def test_bitvector_kinds_agree(self):
        rng = random.Random(2)
        data = [rng.randrange(12) for _ in range(300)]
        trees = {kind: WaveletTree(data, bitvector=kind) for kind in ("rrr", "plain")}
        for pos in range(0, 300, 37):
            values = {kind: tree.access(pos) for kind, tree in trees.items()}
            assert len(set(values.values())) == 1

    def test_range_count(self):
        rng = random.Random(3)
        data = [rng.randrange(20) for _ in range(400)]
        tree = WaveletTree(data)
        for start, stop, low, high in [(0, 400, 0, 20), (50, 300, 3, 9), (100, 101, 5, 6), (10, 10, 0, 20)]:
            expected = sum(1 for x in data[start:stop] if low <= x < high)
            assert tree.range_count(start, stop, low, high) == expected

    def test_quantile(self):
        rng = random.Random(4)
        data = [rng.randrange(50) for _ in range(300)]
        tree = WaveletTree(data)
        for start, stop in [(0, 300), (17, 230), (100, 120)]:
            window = sorted(data[start:stop])
            for k in (0, len(window) // 2, len(window) - 1):
                assert tree.quantile(start, stop, k) == window[k]
        with pytest.raises(OutOfBoundsError):
            tree.quantile(10, 20, 10)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_property_against_list(self, data):
        tree = WaveletTree(data, alphabet_size=31)
        assert tree.to_list() == data
        for symbol in set(data):
            assert tree.count(symbol) == data.count(symbol)
            occurrences = [i for i, x in enumerate(data) if x == symbol]
            for idx in range(0, len(occurrences), max(1, len(occurrences) // 3)):
                assert tree.select(symbol, idx) == occurrences[idx]

    def test_size_reporting(self):
        data = [i % 8 for i in range(1000)]
        tree = WaveletTree(data)
        assert tree.size_in_bits() > 0
