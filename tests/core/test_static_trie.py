"""Tests for the static Wavelet Trie (Theorem 3.7)."""

import random
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import compute_bounds
from repro.baselines import NaiveIndexedSequence
from repro.bitvector.window import BitvectorWindow
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie, check_preorder_tree, flags_of_words
from repro.exceptions import (
    ImmutableStructureError,
    OutOfBoundsError,
    SerializationError,
    ValueNotFoundError,
)
from repro.storage import dumps, loads
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
        for kind in ("huffman", "rle"):
            with pytest.raises(ValueError, match=r"expected one of \['plain', 'rrr'\]"):
                WaveletTrie(["a"], bitvector=kind)

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
        for kind in ("rrr", "plain"):
            trie = WaveletTrie(column_values, bitvector=kind)
            assert trie.to_list() == column_values
            sizes[kind] = trie.bitvector_bits()
        # For skewed data the RRR node bitvectors win over the plain ones.
        assert sizes["rrr"] < sizes["plain"]

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
    preorder: built, frozen or opened from an image."""

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

    @pytest.mark.parametrize("kind", ["rrr", "plain"])
    def test_built_and_opened_tries(self, kind, url_log):
        from repro.storage import dumps, loads

        trie = WaveletTrie(url_log[:150], bitvector=kind)
        for candidate in (trie, loads(dumps(trie))):
            self.assert_windows_tile(candidate, candidate.node_bitvector)
            assert candidate.node_offsets().total == len(candidate.node_bitvector)

    def test_frozen_tries_share_the_builder_vector(self, url_log):
        from repro.core.append_only import AppendOnlyWaveletTrie
        from repro.core.tiers import freeze_trie

        values = url_log[:150]
        built = WaveletTrie(values)
        frozen = freeze_trie(AppendOnlyWaveletTrie(values))
        self.assert_windows_tile(frozen, frozen.node_bitvector)
        assert frozen.node_bitvector.to_words() == built.node_bitvector.to_words()
        assert frozen.succinct_space_breakdown() == built.succinct_space_breakdown()

    def test_space_charges_the_shared_vector_once(self, url_log):
        trie = WaveletTrie(url_log[:150])
        vector, offsets = trie.node_bitvector, trie.node_offsets()
        assert trie.bitvector_bits() == vector.size_in_bits() + offsets.size_in_bits()
        breakdown = trie.succinct_space_breakdown()
        assert breakdown["bitvectors"] == vector.size_in_bits()
        assert breakdown["bitvector_delimiters"] == offsets.size_in_bits()


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


class TestOnePath:
    """A built trie, a frozen tier and an opened image hold the same
    components, so the one engine answers every query alike on them."""

    @pytest.mark.parametrize("kind", ["rrr", "plain"])
    @pytest.mark.parametrize("fixture", ["url_log", "column_values"])
    def test_every_engine_query_matches_on_built_and_opened_tries(
        self, fixture, kind, request, tmp_path
    ):
        from repro.core.append_only import AppendOnlyWaveletTrie
        from repro.core.tiers import freeze_trie
        from repro.storage import open_image, save_image

        values = request.getfixturevalue(fixture)
        built = WaveletTrie(values, bitvector=kind)
        expected = engine_answers(built, values)
        assert expected["iter_range"][0] == values
        path = tmp_path / "trie.rwt2"
        save_image(built, path)
        opened = open_image(path)
        assert isinstance(opened, WaveletTrie) and opened.bitvector_kind == kind
        assert engine_answers(opened, values) == expected
        if kind == "rrr":
            frozen = freeze_trie(AppendOnlyWaveletTrie(values))
            assert engine_answers(frozen, values) == expected


class TestNodeHandles:
    """Node handles are made on demand and kept: an open makes none, a
    walk makes the handles of its path's nodes and their siblings, and a
    repeated walk makes none."""

    def test_an_open_makes_no_handle_and_walks_keep_theirs(self, url_log, monkeypatch):
        from repro.core import static
        from repro.storage import dumps, loads

        built = WaveletTrie(url_log)
        probes = sorted(set(url_log))[::7]
        heights = {value: built.height_of(value) for value in probes}
        data = dumps(built)
        made = Counter()
        node_init, label_of = static._Node.__init__, static.WaveletTrie._label

        def counted_init(node, *args):
            made["handles"] += 1
            node_init(node, *args)

        def counted_label(trie, index):
            made["labels"] += 1
            return label_of(trie, index)

        monkeypatch.setattr(static._Node, "__init__", counted_init)
        monkeypatch.setattr(static.WaveletTrie, "_label", counted_label)
        for value in probes:
            made.clear()
            opened = loads(data)
            assert made == Counter()  # no handle and no label slice at open
            assert opened.rank(value, len(url_log)) == url_log.count(value)
            assert 0 < made["handles"] <= 2 * heights[value] + 1
            assert made["labels"] == made["handles"]
            made.clear()
            assert opened.rank(value, len(url_log)) == url_log.count(value)
            assert made == Counter()

    def test_walked_handles_are_plain_nodes(self, url_log):
        """A walk leaves no handle on its path behind ``__getattr__``: a
        leaf's handle is complete when made, an internal node's on its
        first ``children`` read."""
        from repro.core import static

        trie = opened(url_log)
        leaf, ancestors = trie._path_of(trie._codec.to_bits(url_log[0]))
        assert type(leaf) is static._Node and leaf.children == [None, None]
        assert all(type(node) is static._Node for node, _ in ancestors)


def opened(values):
    """The static trie of ``values``, opened from its image: the served
    form, which starts with no node handle."""
    return loads(dumps(WaveletTrie(values)))


class TestOpenedAgainstPointerTrie:
    """An opened static trie answers as a trie of pointer nodes (the
    dynamic trie) over the same values, in less space."""

    @pytest.fixture(scope="class")
    def pair(self, url_log):
        values = url_log[:200]
        return opened(values), DynamicWaveletTrie(values), values

    def test_access(self, pair):
        trie, pointer, values = pair
        for pos in range(0, len(values), 9):
            assert trie.access(pos) == pointer.access(pos) == values[pos]

    def test_rank_select(self, pair):
        trie, pointer, values = pair
        for value in set(values):
            assert trie.count(value) == pointer.count(value)
            assert trie.rank(value, 137) == pointer.rank(value, 137)
            assert trie.select(value, 0) == pointer.select(value, 0)

    def test_prefix_operations(self, pair):
        trie, pointer, values = pair
        for prefix in ["http://", "http://www.s", values[0][:24], "zzz"]:
            assert trie.rank_prefix(prefix, 180) == pointer.rank_prefix(prefix, 180)
            total = pointer.rank_prefix(prefix, len(values))
            if total:
                assert trie.select_prefix(prefix, total - 1) == pointer.select_prefix(
                    prefix, total - 1
                )

    def test_counts_and_structure(self, pair):
        trie, pointer, values = pair
        assert trie.node_count() == pointer.node_count()
        assert trie.distinct_count() == pointer.distinct_count()
        assert trie.label_bits() == pointer.label_bits()
        assert len(trie) == len(values)

    def test_space_is_below_pointer_accounting(self, pair):
        trie, pointer, _ = pair
        assert trie.size_in_bits() < pointer.size_in_bits()
        assert trie.bitvector_bits() < pointer.bitvector_bits()
        breakdown = trie.succinct_space_breakdown()
        assert breakdown["topology"] > 0
        assert breakdown["bitvectors"] > 0


class TestOpenedEdgeCases:
    def test_empty(self):
        trie = opened([])
        assert len(trie) == 0
        assert trie.node_count() == 0
        assert trie.rank("x", 0) == 0
        assert trie.size_in_bits() == 0
        with pytest.raises(ValueNotFoundError):
            trie.select("x", 0)

    def test_single_value(self):
        trie = opened(["only", "only"])
        assert trie.access(1) == "only"
        assert trie.rank("only", 2) == 2
        assert trie.select("only", 1) == 1
        assert trie.rank("other", 2) == 0

    def test_errors(self):
        trie = opened(["a", "b"])
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
        trie = opened(values)
        oracle = NaiveIndexedSequence(values)
        assert len(trie) == len(values)
        for pos in range(len(values)):
            assert trie.access(pos) == oracle.access(pos)
        for value in set(values):
            assert trie.count(value) == oracle.count(value)
            assert trie.rank_prefix(value[:1], len(values)) == oracle.rank_prefix(
                value[:1], len(values)
            )


def random_values(seed):
    """A few short values over a small alphabet, so tries of every shape
    (deep chains, bushy levels, a lone leaf) come up."""
    rng = random.Random(seed)
    return [
        "".join(rng.choice("ab/") for _ in range(rng.randrange(7)))
        for _ in range(rng.randint(1, 40))
    ]


class TestPreorderTopology:
    """The stored preorder internal flags are the whole topology: handles
    made from them navigate as the pointer trie's nodes do."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_navigation_matches_pointer_tree(self, seed):
        values = random_values(seed)
        ours = list(opened(values).nodes())
        theirs = list(DynamicWaveletTrie(values).nodes())
        assert len(ours) == len(theirs)
        our_index = {id(node): i for i, node in enumerate(ours)}
        their_index = {id(node): i for i, node in enumerate(theirs)}

        def index_of(table, node):
            return None if node is None else table[id(node)]

        for node, other in zip(ours, theirs):
            assert node.label == other.label
            assert node.is_leaf == other.is_leaf
            assert index_of(our_index, node.parent) == index_of(their_index, other.parent)
            assert node.sequence_length(len(values)) == other.sequence_length(len(values))
            if node.parent is not None:
                assert node.parent_bit == other.parent_bit
                assert node.parent.children[node.parent_bit] is node
            if not node.is_leaf:
                assert [index_of(our_index, child) for child in node.children] == [
                    index_of(their_index, child) for child in other.children
                ]
                assert node.bitvector.to_list() == other.bitvector.to_list()

    def test_single_node(self):
        trie = opened(["only"] * 3)
        (root,) = trie.nodes()
        assert root.is_leaf and root.parent is None
        assert root.children == [None, None]
        assert trie.succinct_space_breakdown()["topology"] == 64
        assert check_preorder_tree([0], 3, None, "one leaf") == (array("q"), 0)

    @pytest.mark.parametrize("source", ["random", "url_log"])
    def test_topology_is_one_flag_per_node(self, source, url_log):
        values = url_log if source == "url_log" else random_values(0)
        trie = opened(values)
        distinct = len(set(values))
        assert trie.node_count() == 2 * distinct - 1
        flags = flags_of_words(trie._flag_words, trie.node_count())
        assert flags == [not node.is_leaf for node in trie.nodes()]
        assert trie.succinct_space_breakdown()["topology"] == 64 * -(
            -(2 * distinct - 1) // 64
        )

    def test_one_pass_tabulates_the_one_children(self):
        # Root (3 rows, one 1) -> internal node 1 (2 rows, one 1) and leaf 4.
        ones = [1, 1]
        one_child, covered = check_preorder_tree(
            [1, 1, 0, 0, 0], 3, lambda node, start, rows: ones[node], "a tree"
        )
        assert one_child == array("q", [4, 3])
        assert covered == 5

    @pytest.mark.parametrize(
        "flags,size,ones,message",
        [
            ([], 3, [], "stored size 3 for no nodes"),
            ([1, 0], 2, [1], "end inside the tree"),
            ([1, 0, 0, 0], 2, [1], "describe no tree"),
            ([1, 0, 0], 2, [2], "leaf 1 receives no rows"),
        ],
        ids=["rows-for-no-nodes", "ends-inside", "no-tree", "leaf-without-rows"],
    )
    def test_malformed_flags_are_rejected(self, flags, size, ones, message):
        with pytest.raises(SerializationError, match=message):
            check_preorder_tree(flags, size, lambda node, start, rows: ones[node], "t")
