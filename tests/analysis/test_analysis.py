"""Tests for entropy measures, Table 1 bounds and space reports."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    SequenceBounds,
    binary_entropy,
    binomial_lower_bound,
    compute_bounds,
    empirical_entropy,
    empirical_entropy_bits,
    wavelet_trie_space_report,
)
from repro.bits.bitstring import Bits
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.exceptions import BinarizationError
from repro.tries.binarize import StringCodec


class BitStringCodec(StringCodec):
    """Values are strings of 0s and 1s, binarised as those bits: no
    terminator, so the encoded set need not be prefix-free."""

    def to_bits(self, value):
        return Bits.from_string(value)

    def from_bits(self, bits):
        return bits.to01()

    def prefix_to_bits(self, prefix):
        return Bits.from_string(prefix)


class TestEntropy:
    def test_uniform_two_symbols(self):
        assert empirical_entropy(["a", "b"]) == pytest.approx(1.0)
        assert empirical_entropy(["a", "a", "b", "b"]) == pytest.approx(1.0)

    def test_constant_sequence(self):
        assert empirical_entropy(["x"] * 10) == 0.0
        assert empirical_entropy([]) == 0.0

    def test_skewed_sequence(self):
        entropy = empirical_entropy(["a"] * 9 + ["b"])
        assert entropy == pytest.approx(binary_entropy(0.1))

    def test_total_entropy(self):
        assert empirical_entropy_bits(["a", "b", "a", "b"]) == pytest.approx(4.0)

    def test_binary_entropy(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-5)
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_entropy_bounds(self, sequence):
        entropy = empirical_entropy(sequence)
        distinct = len(set(sequence))
        assert 0.0 <= entropy <= math.log2(distinct) + 1e-9

    def test_binomial_lower_bound(self):
        assert binomial_lower_bound(0, 10) == 0
        assert binomial_lower_bound(10, 10) == 0
        assert binomial_lower_bound(1, 2) == 1
        assert binomial_lower_bound(2, 4) == math.ceil(math.log2(6))
        with pytest.raises(ValueError):
            binomial_lower_bound(5, 4)

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_binomial_bound_vs_entropy_formula(self, m, n):
        if m > n or n == 0:
            return
        bound = binomial_lower_bound(m, n)
        # B(m, n) <= n H(m/n) + O(1)  (the inequality used throughout the paper)
        assert bound <= n * binary_entropy(m / n) + 1.5


class TestSequenceBounds:
    def test_known_small_sequence(self):
        values = ["a", "b", "a", "a"]
        bounds = compute_bounds(values)
        assert bounds.length == 4
        assert bounds.distinct == 2
        assert bounds.entropy_per_symbol == pytest.approx(binary_entropy(0.25))
        assert bounds.entropy_bits == pytest.approx(4 * binary_entropy(0.25))
        assert bounds.lb_bits == pytest.approx(bounds.lt_bits + bounds.entropy_bits)
        # 'a\0' and 'b\0' are 16 bits each: total input 64 bits.
        assert bounds.total_input_bits == 64
        assert bounds.edges == 2
        assert bounds.average_height == 1.0

    def test_empty_sequence(self):
        bounds = compute_bounds([])
        assert bounds.length == 0
        assert bounds.lb_bits == 0
        assert bounds.average_height == 0.0

    def test_average_height_matches_trie(self, url_log):
        values = url_log[:150]
        bounds = compute_bounds(values)
        trie = WaveletTrie(values)
        assert bounds.average_height == pytest.approx(trie.average_height())
        assert bounds.label_bits == trie.label_bits()

    def test_lemma_3_5_bounds(self, url_log, query_log, column_values):
        """H0(S) <= h~ <= average input length (Lemma 3.5)."""
        for values in (url_log[:200], query_log[:200], column_values[:200]):
            bounds = compute_bounds(values)
            average_length = bounds.total_input_bits / bounds.length
            assert bounds.entropy_per_symbol <= bounds.average_height + 1e-9
            assert bounds.average_height <= average_length + 1e-9

    def test_as_dict(self):
        bounds = compute_bounds(["x", "y"])
        flat = bounds.as_dict()
        assert flat["n"] == 2 and "LB_bits" in flat


class TestPatriciaShape:
    """Hand-checked label bits, edges and heights of the Patricia trie
    ``compute_bounds`` reads off the sorted distinct codes."""

    def test_a_single_value_is_one_leaf(self):
        bounds = compute_bounds(["solo", "solo"])
        assert bounds.label_bits == 40  # "solo" + NUL, all in the leaf
        assert bounds.edges == 0
        assert bounds.average_height == 0.0

    def test_four_one_letter_values(self):
        # a, b, c, d are 0x61..0x64: the root splits {a, b, c} from d after
        # 5 shared bits, then a from {b, c} after 6 and b from c after 7.
        # Labels 5 + 0 + 0 (internal) + 9 + 8 + 8 + 10 (leaves) = 40 bits.
        bounds = compute_bounds(["a", "b", "c", "d"])
        assert bounds.label_bits == 40
        assert bounds.edges == 2 * (4 - 1)
        assert bounds.average_height == (2 + 3 + 3 + 1) / 4
        assert bounds.total_height_bits == 9

    def test_heights_weight_each_value_by_its_rows(self):
        # "aa" and "ab" split after 14 shared bits, below the root's split
        # from "b" after 6: heights 2, 2 and 1.
        bounds = compute_bounds(["aa", "ab", "b", "b", "b"])
        assert bounds.label_bits == 64 - (14 + 6) - 2 * 2
        assert bounds.edges == 4
        assert bounds.average_height == (2 + 2 + 1 * 3) / 5

    def test_an_empty_root_label(self):
        bounds = compute_bounds(["00", "01", "1"], codec=BitStringCodec())
        assert bounds.label_bits == 0
        assert bounds.edges == 4
        assert bounds.average_height == (2 + 2 + 1) / 3

    def test_duplicates_do_not_change_the_shape(self):
        once = compute_bounds(["x"])
        thrice = compute_bounds(["x", "x", "x"])
        assert (thrice.distinct, thrice.label_bits, thrice.edges) == (1, 16, 0)
        assert (once.distinct, once.label_bits, once.edges) == (1, 16, 0)
        assert (thrice.length, thrice.total_input_bits) == (3, 48)

    def test_five_words_with_a_shared_prefix(self):
        # Sorted: alpha, alphabet, beta, delta, gamma, with adjacent LCPs
        # 41 (NUL against "b"), 6, 5 and 6 bits.  The root splits at 5, so
        # every internal node has two children: e = 2(5 - 1).
        # |L| = 8 (6 + 9 + 5 + 6 + 6) - (41 + 6 + 5 + 6) - 8 = 190 and the
        # heights are 3, 3, 2, 2, 2.
        bounds = compute_bounds(["alpha", "beta", "gamma", "delta", "alphabet"])
        assert bounds.label_bits == 190
        assert bounds.edges == 8
        assert bounds.average_height == 12 / 5

    @pytest.mark.parametrize("word_bits", [64, 32])
    def test_pointer_charge_is_four_words_per_node(self, word_bits):
        # "aaa" and "aab" split after 22 bits, below the root's split from
        # "abc" after 14: 2 * 3 - 1 nodes and |L| = 96 - 36 - 4.
        bounds = compute_bounds(["aaa", "aab", "abc"], word_bits=word_bits)
        assert bounds.pt_bits == (2 * 3 - 1) * 4 * word_bits
        assert bounds.total_input_bits == 3 * 32
        assert bounds.label_bits == 56
        assert bounds.average_height == 5 / 3

    def test_shape_follows_a_dynamic_trie_through_inserts_and_deletes(self):
        rng = random.Random(5)
        population = [
            "/".join(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
            for _ in range(60)
        ]
        trie = DynamicWaveletTrie()
        for step in range(400):
            if len(trie) and rng.random() < 0.4:
                trie.delete(rng.randrange(len(trie)))
            else:
                trie.insert(rng.choice(population), rng.randint(0, len(trie)))
            if step % 50 == 0:
                bounds = compute_bounds(trie.to_list())
                assert bounds.label_bits == trie.label_bits()
                assert bounds.average_height == trie.average_height()
        bounds = compute_bounds(trie.to_list())
        assert bounds.distinct == len(set(trie.to_list()))
        assert bounds.label_bits == trie.label_bits()
        assert bounds.average_height == trie.average_height()

    @pytest.mark.parametrize("values", [["01", "0101"], ["0101", "1", "01"]])
    def test_a_set_that_is_not_prefix_free_is_rejected(self, values):
        with pytest.raises(BinarizationError, match="not prefix-free"):
            compute_bounds(values, codec=BitStringCodec())

    @given(st.lists(st.text(alphabet="ab/", max_size=8), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_shape_matches_every_trie_flavour(self, values):
        bounds = compute_bounds(values)
        for trie in (
            WaveletTrie(values),
            AppendOnlyWaveletTrie(values),
            DynamicWaveletTrie(values),
        ):
            assert bounds.label_bits == trie.label_bits()
            assert bounds.average_height == trie.average_height()


class TestSpaceReport:
    def test_report_components(self, column_values):
        values = column_values[:150]
        for trie in (WaveletTrie(values), AppendOnlyWaveletTrie(values), DynamicWaveletTrie(values)):
            report = wavelet_trie_space_report(trie)
            assert report.total_bits > 0
            assert report.components["node_labels"] == trie.label_bits()
            assert report.components["node_bitvectors"] == trie.bitvector_bits()
            assert report.bits_per_element(len(values)) == pytest.approx(
                report.total_bits / len(values)
            )
            assert "total_bits" in report.as_dict()

    def test_static_uses_succinct_topology(self, column_values):
        trie = WaveletTrie(column_values[:100])
        report = wavelet_trie_space_report(trie)
        assert "topology" in report.components
        assert "topology_pointers" not in report.components

    def test_static_report_charges_what_size_in_bits_charges(self, column_values):
        from repro.storage import dumps, loads

        built = WaveletTrie(column_values)
        for trie in (built, loads(dumps(built))):
            report = wavelet_trie_space_report(trie)
            assert report.total_bits == trie.size_in_bits()
            assert report.components["tables"] == trie.table_bits() > 0

    def test_measured_space_vs_bounds(self, column_values):
        """The headline Table 1 claim, in miniature: measured bitvector space
        stays within a small factor of nH0 while the raw data is much larger.

        The claim is about the regime the paper targets (n >> |Sset|); the
        column workload has 24 distinct values over 350 rows.
        """
        bounds = compute_bounds(column_values)
        trie = WaveletTrie(column_values)
        assert trie.bitvector_bits() <= 3.0 * bounds.entropy_bits + 4096
        assert trie.bitvector_bits() < bounds.total_input_bits
