"""The paper's cost claims (Table 1, Section 5) as exact call counts.

Table 1 bounds every query and update by ``O(|s| + h_s)`` node visits: a
constant number of bitvector operations per internal node on the path of
``s``, whatever the sequence length n.  The dynamic flavour pays its
``log n`` inside those operations, in the depth of each node's run treap.
Section 5's range algorithms spend one rank per traversed node instead of
one per element.  A batched Append of values the trie already routes makes
one bulk append per touched node, with no descent.

Timings cannot check these claims exactly, so this module counts the
trie's outermost calls into its node bitvectors instead.  A test-local
wrapper, :class:`CountingBitVector`, sits between every internal node and
its bitvector, and every ``Init`` of a new node goes through it too.  The
inputs are a seeded URL sweep in which every n has the same distinct set:
the distinct values first, then a prefix of one log.  So the trie shape,
and with it every path, is the same at every n.  A tiered trie of k
identical frozen tiers is counted per tier: its reads walk the tier that
owns the position and read the other tiers' totals off their topology.
The O(|s|) label work is counted as ``Bits`` constructions: a key walk
matches labels on the key's integer and builds none per node or tier.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.analysis import compute_bounds
from repro.baselines import NaiveIndexedSequence
from repro.bits import bitstring, kernel
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.db.column import CompressedColumn
from repro.workloads import ColumnGenerator, UrlLogGenerator

SIZES = (500, 2000, 8000)

FLAVOURS = {
    "static": WaveletTrie,
    "append-only": AppendOnlyWaveletTrie,
    "dynamic": DynamicWaveletTrie,
}

_LOG = UrlLogGenerator(domains=10, depth=2, branching=2, seed=1234).generate(
    max(SIZES)
)
DISTINCT = list(dict.fromkeys(_LOG))


def url_sweep(n):
    """n URLs whose distinct set is :data:`DISTINCT` at every n."""
    return DISTINCT + _LOG[: n - len(DISTINCT)]


class CountingBitVector:
    """Forwards to a node bitvector and counts each call made into it.

    Calls the bitvector makes into itself are not seen, so the count is
    the trie's own work: its outermost bitvector calls.
    """

    __slots__ = ("_inner", "_calls")

    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls

    def __len__(self):
        self._calls["__len__"] += 1
        return len(self._inner)

    def __getattr__(self, name):
        attribute = getattr(self._inner, name)
        if not callable(attribute):
            return attribute
        calls = self._calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return attribute(*args, **kwargs)

        return counted


def count_calls(trie):
    """Wrap every node bitvector of ``trie``, and every later ``Init``.

    Returns the live :class:`Counter` of calls by method name.
    """
    calls = Counter()
    for node in trie.nodes():
        if not node.is_leaf:
            node.bitvector = CountingBitVector(node.bitvector, calls)
    if hasattr(trie, "_new_constant_bitvector"):
        init = trie._new_constant_bitvector

        def counted_init(bit, length):
            calls["init_run"] += 1
            return CountingBitVector(init(bit, length), calls)

        trie._new_constant_bitvector = counted_init
    return calls


def measure(calls, operation):
    """Run ``operation()``; return its result and the calls it made."""
    calls.clear()
    result = operation()
    return result, Counter(calls)


def path_nodes(trie, value):
    """The internal nodes on the root-to-leaf path of ``value``."""
    _, ancestors = trie._path_of(trie.codec.to_bits(value))
    return [node for node, _ in ancestors]


def prefix_path_nodes(trie, prefix):
    """The internal nodes above the node that holds ``prefix``."""
    _, ancestors = trie._prefix_node(trie.codec.prefix_to_bits(prefix))
    return [node for node, _ in ancestors]


def traversed_nodes(trie, values, skip=0):
    """Internal nodes on the paths of ``values``, minus each path's first ``skip``."""
    return {
        id(node)
        for value in set(values)
        for node in path_nodes(trie, value)[skip:]
    }


@pytest.fixture(scope="module")
def sweep():
    """``{(flavour, n): (trie, calls)}``, wrapped, for the read-only tests."""
    built = {}
    for flavour, factory in FLAVOURS.items():
        for n in SIZES:
            trie = factory(url_sweep(n))
            built[flavour, n] = trie, count_calls(trie)
    return built


# ----------------------------------------------------------------------
# Table 1, queries: O(|s| + h_s), flat in n
# ----------------------------------------------------------------------
PROBES = random.Random(7).sample(DISTINCT, 20)

# Total calls of the 20 probes per operation, at every n and on every
# flavour: the Patricia trie over DISTINCT fixes every path.
PROBE_TOTALS = {
    "access": Counter({"access": 122, "rank": 122}),
    "rank": Counter({"rank": 122}),
    "select": Counter({"select": 122, "count": 20}),
    "rank_prefix": Counter({"rank": 95}),
    "select_prefix": Counter({"select": 95, "count": 20}),
}


def directory_of(url):
    """The probe prefix: ``url`` up to and including its last ``/``."""
    return url[: url.rindex("/") + 1]


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_queries_cost_two_calls_per_path_node_at_every_n(sweep, flavour):
    for n in SIZES:
        trie, calls = sweep[flavour, n]
        values = url_sweep(n)
        totals = {op: Counter() for op in PROBE_TOTALS}
        for value in PROBES:
            position = DISTINCT.index(value)
            height = len(path_nodes(trie, value))
            prefix = directory_of(value)
            above = len(prefix_path_nodes(trie, prefix))
            probes = {
                "access": (lambda: trie.access(position), value,
                           Counter({"access": height, "rank": height})),
                "rank": (lambda: trie.rank(value, n), values.count(value),
                         Counter({"rank": height})),
                "select": (lambda: trie.select(value, 0), position,
                           Counter({"select": height, "count": 1})),
                "rank_prefix": (
                    lambda: trie.rank_prefix(prefix, n),
                    sum(1 for v in values if v.startswith(prefix)),
                    Counter({"rank": above}),
                ),
                "select_prefix": (
                    lambda: trie.select_prefix(prefix, 0),
                    next(i for i, v in enumerate(values) if v.startswith(prefix)),
                    Counter({"select": above, "count": 1 if above else 0}),
                ),
            }
            for op, (operation, expected, expected_calls) in probes.items():
                result, made = measure(calls, operation)
                assert result == expected, (flavour, n, op, value)
                assert made == expected_calls, (flavour, n, op, value)
                path = above if op.endswith("_prefix") else height
                assert sum(made.values()) <= 2 * path
                totals[op] += made
        assert totals == PROBE_TOTALS, (flavour, n)


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_counts_read_the_topology_with_no_rank_at_every_n(sweep, flavour):
    """A total is the subsequence length of the leaf (or of the prefix
    node): one count on its parent's bitvector (Definition 3.1)."""
    for n in SIZES:
        trie, calls = sweep[flavour, n]
        values = url_sweep(n)
        for value in PROBES:
            total, made = measure(calls, lambda: trie.count(value))
            assert total == values.count(value)
            assert made == Counter({"count": 1}), (flavour, n, value)
            prefix = directory_of(value)
            above = len(prefix_path_nodes(trie, prefix))
            total, made = measure(calls, lambda: trie.count_prefix(prefix))
            assert total == sum(1 for v in values if v.startswith(prefix))
            assert made == Counter({"count": 1 if above else 0}), (flavour, n)


# ----------------------------------------------------------------------
# Tiered reads: counts from the topology, ranks in the owning tier only
# ----------------------------------------------------------------------
TIER_COUNTS = (1, 4, 16)

# One tier's rows: every frozen tier holds them, so every tier has one shape.
TIER_ROWS = url_sweep(min(SIZES))


def tiered_sweep(k):
    """k frozen tiers of :data:`TIER_ROWS`, each tier's node bitvectors
    wrapped; returns the trie, its tiers and one call Counter per tier."""
    trie = TieredWaveletTrie(TIER_ROWS * k, active_capacity=len(TIER_ROWS))
    tiers, _ = trie._tier_views()
    assert [len(tier) for tier in tiers] == [len(TIER_ROWS)] * k
    assert all(isinstance(tier, WaveletTrie) for tier in tiers)
    return trie, tiers, [count_calls(tier) for tier in tiers]


def measure_tiers(calls, operation):
    """Run ``operation()``; return its result and each tier's calls."""
    for counter in calls:
        counter.clear()
    result = operation()
    return result, [Counter(counter) for counter in calls]


def count_on(nodes):
    """Wrap ``nodes`` once more: the Counter sees only the calls on them."""
    calls = Counter()
    for node in nodes:
        node.bitvector = CountingBitVector(node.bitvector, calls)
    return calls


def tiered_probes(k):
    """Each tiered read's result and calls per tier, and the calls the
    paper's costs allow: a tier left of the owner pays one count, the
    owner its path, and no tier pays anything else."""
    trie, tiers, calls = tiered_sweep(k)
    rows = len(TIER_ROWS)
    value = FREQUENT
    prefix = directory_of(value)
    occurrences = TIER_ROWS.count(value)
    matches = sum(1 for v in TIER_ROWS if v.startswith(prefix))
    height = len(path_nodes(tiers[0], value))
    above = len(prefix_path_nodes(tiers[0], prefix))
    owner = k // 2
    start = owner * rows
    inside = [start + 1, start + rows // 2, start + rows - 1]

    def rank_in(pos):
        return owner * occurrences + TIER_ROWS[: pos - start].count(value)

    def prefix_rank_in(pos):
        row = TIER_ROWS[: pos - start]
        return owner * matches + sum(1 for v in row if v.startswith(prefix))

    one_count = Counter({"count": 1})

    def owned(owner_calls, left=one_count):
        """A walk: the tiers left of the owner count, later tiers idle."""
        return [left] * owner + [owner_calls] + [Counter()] * (k - owner - 1)

    def totals(tier_calls=one_count, owner_calls=None):
        """Totals: every tier counts; the owner may unwind a path too."""
        made = [tier_calls] * k
        made[owner] = owner_calls or tier_calls
        return made

    count_prefix_calls = Counter({"count": 1 if above else 0})
    first = TIER_ROWS.index(value)
    second = TIER_ROWS.index(value, first + 1)
    snapshot = CompressedColumn.from_index("c", trie).snapshot()
    probes = {
        "rank_many": (
            lambda: trie.rank_many(value, inside),
            [rank_in(pos) for pos in inside],
            owned(Counter({"rank_many": height})),
            path_nodes(tiers[owner], value),
        ),
        "rank": (
            lambda: trie.rank(value, inside[1]),
            rank_in(inside[1]),
            owned(Counter({"rank_many": height})),
            path_nodes(tiers[owner], value),
        ),
        "rank_prefix_many": (
            lambda: trie.rank_prefix_many(prefix, inside),
            [prefix_rank_in(pos) for pos in inside],
            owned(Counter({"rank_many": above}), count_prefix_calls),
            prefix_path_nodes(tiers[owner], prefix),
        ),
        "rank_at_tier_ends": (
            lambda: trie.rank_many(value, [0, start, start + rows]),
            [0, owner * occurrences, (owner + 1) * occurrences],
            owned(one_count),
            [],
        ),
        "count": (lambda: trie.count(value), k * occurrences, totals(), []),
        "rank_at_len": (
            lambda: trie.rank(value, len(trie)), k * occurrences, totals(), []
        ),
        "count_prefix": (
            lambda: trie.count_prefix(prefix), k * matches,
            totals(count_prefix_calls), [],
        ),
        "rank_prefix_at_len": (
            lambda: trie.rank_prefix(prefix, len(trie)), k * matches,
            totals(count_prefix_calls), [],
        ),
        # Select: one count per tier for the totals, then the owner's path
        # unwound (its leaf length read once more).  The snapshot counts
        # once for its own check, then the trie counts again.
        "select_many": (
            lambda: trie.select_many(value, [owner * occurrences + i for i in (0, 1)]),
            [start + first, start + second],
            totals(one_count, Counter({"count": 2, "select_many": height})),
            path_nodes(tiers[owner], value),
        ),
        "snapshot_select": (
            lambda: snapshot.select(value, owner * occurrences),
            start + first,
            totals(Counter({"count": 2}), Counter({"count": 3, "select": height})),
            path_nodes(tiers[owner], value),
        ),
    }
    seen = {}
    for name, (operation, expected, allowed, on_path) in probes.items():
        path_calls = count_on(on_path)
        result, made = measure_tiers(calls, operation)
        assert result == expected, (k, name)
        assert made == allowed, (k, name)
        if on_path:
            # Every call the owning tier made landed on its path nodes.
            assert made[owner] == path_calls, (k, name)
        seen[name] = made
    return seen


@pytest.mark.parametrize("k", TIER_COUNTS)
def test_tiered_reads_walk_only_the_owning_tier(k):
    seen = tiered_probes(k)
    for name in ("count", "rank_at_len", "count_prefix", "rank_prefix_at_len",
                 "rank_at_tier_ends", "select_many", "snapshot_select"):
        assert not any(tier["rank"] or tier["rank_many"] for tier in seen[name])


def test_tiered_read_totals_are_flat_in_k_apart_from_one_count_per_tier():
    totals = {}
    for k in TIER_COUNTS:
        for name, made in tiered_probes(k).items():
            total = sum(made, Counter())
            total.pop("count", None)
            totals.setdefault(name, []).append(total)
    for name, per_k in totals.items():
        assert per_k.count(per_k[0]) == len(per_k), name


# ----------------------------------------------------------------------
# Table 1's O(|s|) label work in word operations: no Bits per node
# ----------------------------------------------------------------------
@pytest.fixture
def bits_built(monkeypatch):
    """A live Counter of ``Bits`` constructions."""
    built = Counter()
    init = bitstring.Bits.__init__

    def counted_init(self, *args, **kwargs):
        built["Bits"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(bitstring.Bits, "__init__", counted_init)
    return built


def bits_per_key_walk(trie, built):
    """``{read: {Bits built by one probe's read}}`` over :data:`PROBES`,
    for the reads that walk a key or a prefix and map no output back to
    bits: count, count_prefix, rank and rank_prefix (mid-sequence)."""
    pos = len(trie) // 2
    seen = {}
    for value in PROBES:
        prefix = directory_of(value)
        reads = {
            "count": lambda: trie.count(value),
            "count_prefix": lambda: trie.count_prefix(prefix),
            "rank": lambda: trie.rank(value, pos),
            "rank_prefix": lambda: trie.rank_prefix(prefix, pos),
        }
        for read, operation in reads.items():
            built.clear()
            operation()
            seen.setdefault(read, set()).add(built["Bits"])
    return seen


def binarising_only(codec, built):
    """What :func:`bits_per_key_walk` reads when a walk builds nothing
    beyond binarising its key once."""
    built.clear()
    codec.to_bits(PROBES[0])
    key = {built["Bits"]}
    built.clear()
    codec.prefix_to_bits(directory_of(PROBES[0]))
    prefix = {built["Bits"]}
    return {"count": key, "count_prefix": prefix, "rank": key, "rank_prefix": prefix}


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_key_walks_build_no_bits_per_node_at_every_n(sweep, flavour, bits_built):
    for n in SIZES:
        trie, _ = sweep[flavour, n]
        heights = {len(path_nodes(trie, value)) for value in PROBES}
        assert len(heights) > 1  # the probes' paths differ in height
        expected = binarising_only(trie.codec, bits_built)
        assert bits_per_key_walk(trie, bits_built) == expected, (flavour, n)


@pytest.mark.parametrize("k", TIER_COUNTS)
def test_tiered_key_walks_build_no_bits_per_tier(k, bits_built):
    trie, _, _ = tiered_sweep(k)
    expected = binarising_only(trie.codec, bits_built)
    assert bits_per_key_walk(trie, bits_built) == expected, k


# ----------------------------------------------------------------------
# Table 1, dynamic: the log n lives in the run treaps
# ----------------------------------------------------------------------
def test_dynamic_run_treaps_are_logarithmically_deep(sweep):
    for n in SIZES:
        trie, _ = sweep["dynamic", n]
        depth = max(
            node.bitvector.tree_depth() for node in trie.nodes() if not node.is_leaf
        )
        assert depth <= 3 * math.log2(n), (n, depth)


# ----------------------------------------------------------------------
# Table 1, updates: O(|s| + h_s) calls, plus one Init for a new value
# ----------------------------------------------------------------------
NEW_URL = "http://www.brand-new.example/path"

# Frequent at the smallest n, hence at every n: each sweep extends the last.
FREQUENT = Counter(url_sweep(min(SIZES))).most_common(1)[0][0]


def test_append_only_append_costs_one_call_per_path_node_at_every_n():
    value = FREQUENT
    seen = []
    for n in SIZES:
        trie = AppendOnlyWaveletTrie(url_sweep(n))
        calls = count_calls(trie)
        height = len(path_nodes(trie, value))
        _, existing = measure(calls, lambda: trie.append(value))
        assert existing == Counter({"append": height})
        _, new = measure(calls, lambda: trie.append(NEW_URL))
        # The split node's length comes from one count on its parent; the
        # new internal node is an offset-Init.
        new_height = len(path_nodes(trie, NEW_URL))
        assert new == Counter({"count": 1, "init_run": 1, "append": new_height})
        assert [trie.access(n), trie.access(n + 1)] == [value, NEW_URL]
        seen.append((existing, new))
    assert seen.count(seen[0]) == len(seen)


def test_dynamic_insert_and_delete_cost_is_flat_in_n():
    value = FREQUENT
    seen = []
    for n in SIZES:
        values = url_sweep(n)
        trie = DynamicWaveletTrie(values)
        nodes_before = trie.node_count()
        calls = count_calls(trie)
        position = n // 2
        height = len(path_nodes(trie, value))

        _, insert = measure(calls, lambda: trie.insert(value, position))
        assert insert == Counter({"insert": height, "rank": height})
        removed, delete = measure(calls, lambda: trie.delete(position))
        assert removed == value
        assert delete == Counter(
            {"access": height, "rank": height, "delete": height, "count": 1}
        )

        _, insert_new = measure(calls, lambda: trie.insert(NEW_URL, position))
        new_height = len(path_nodes(trie, NEW_URL))
        assert insert_new == Counter(
            {"count": 1, "init_run": 1, "insert": new_height, "rank": new_height}
        )
        assert trie.node_count() == nodes_before + 2
        # Deleting the last occurrence merges the split back (Table 1 dagger).
        removed, delete_last = measure(calls, lambda: trie.delete(position))
        assert removed == NEW_URL
        assert delete_last == Counter(
            {"access": new_height, "rank": new_height, "delete": new_height,
             "count": 1}
        )
        assert trie.node_count() == nodes_before
        assert trie.to_list() == values
        seen.append((insert, delete, insert_new, delete_last))
    assert seen.count(seen[0]) == len(seen)


# ----------------------------------------------------------------------
# Batched Append into a warm trie: one extend per touched node
# ----------------------------------------------------------------------
WARM_BATCH = random.Random(11).sample(DISTINCT, 16)


@pytest.mark.parametrize("flavour", ["append-only", "dynamic"])
def test_warm_extend_makes_one_extend_per_touched_node_at_every_n(
    flavour, monkeypatch
):
    """The path cache routes stored values with no descent, and the dynamic
    node bitvectors group a list of bits into runs without the kernel."""
    packs = Counter()
    for module in (kernel, bitstring):
        def counted_pack(bits, original=module.pack_bits):
            packs["pack_bits"] += 1
            return original(bits)

        monkeypatch.setattr(module, "pack_bits", counted_pack)
    seen = []
    for n in SIZES:
        trie = FLAVOURS[flavour](url_sweep(n))
        trie.extend(WARM_BATCH)  # fills the path cache
        touched = traversed_nodes(trie, WARM_BATCH)
        calls = count_calls(trie)
        descents = Counter()

        def counted_path_of(key, original=trie._path_of):
            descents["_path_of"] += 1
            return original(key)

        trie._path_of = counted_path_of
        packs.clear()
        _, made = measure(calls, lambda: trie.extend(WARM_BATCH))
        # No Init, no count: nothing splits.
        assert made == Counter({"extend": len(touched)}), (flavour, n)
        assert not descents
        if flavour == "dynamic":
            assert not packs
        assert trie.to_list() == url_sweep(n) + 2 * WARM_BATCH
        seen.append(made)
    assert seen.count(seen[0]) == len(seen)


# ----------------------------------------------------------------------
# Table 1, space
# ----------------------------------------------------------------------
SPACE_INPUTS = {
    "urls-4000": lambda: UrlLogGenerator(
        domains=10, depth=2, branching=2, seed=1234
    ).generate(4000),
    "column-4000": lambda: ColumnGenerator(
        cardinality=32, zipf_exponent=1.1, seed=99
    ).generate(4000),
}


@pytest.mark.parametrize("workload", sorted(SPACE_INPUTS))
def test_space_tracks_the_table_1_bounds(workload):
    values = SPACE_INPUTS[workload]()
    bounds = compute_bounds(values)
    raw_bits = sum(len(value.encode()) * 8 for value in values)
    naive_bits = NaiveIndexedSequence(values).size_in_bits()
    sizes = {}
    for flavour, factory in FLAVOURS.items():
        trie = factory(values)
        sizes[flavour] = trie.size_in_bits()
        assert (
            trie.bitvector_bits()
            <= 4.0 * bounds.entropy_bits + 200 * trie.node_count()
        ), flavour
        assert sizes[flavour] < raw_bits + bounds.pt_bits, flavour
        assert trie.label_bits() == bounds.label_bits, flavour
        assert sizes[flavour] < naive_bits, flavour
    assert sizes["static"] <= sizes["append-only"]


# ----------------------------------------------------------------------
# Section 5: one rank per traversed node, not per element
# ----------------------------------------------------------------------
WINDOWS = ((1000, 1400), (2000, 3600))


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_iter_range_calls_are_bounded_by_traversed_nodes(sweep, flavour):
    n = max(SIZES)
    trie, calls = sweep[flavour, n]
    values = url_sweep(n)
    internal = sum(1 for node in trie.nodes() if not node.is_leaf)
    for start, stop in WINDOWS:
        window = values[start:stop]
        traversed = len(traversed_nodes(trie, window))
        rows, made = measure(calls, lambda: list(trie.iter_range(start, stop)))
        assert rows == window
        # One rank pair and one bit iterator per traversed node.
        assert made == Counter({"rank_many": traversed, "iter_range": traversed})
        assert traversed <= internal
        heights = sum(len(path_nodes(trie, value)) for value in window)
        _, loop = measure(
            calls, lambda: [trie.access(pos) for pos in range(start, stop)]
        )
        assert loop == Counter({"access": heights, "rank": heights})
        assert sum(made.values()) * 10 < sum(loop.values())


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_distinct_in_range_makes_one_rank_many_per_visited_node(sweep, flavour):
    n = max(SIZES)
    trie, calls = sweep[flavour, n]
    values = url_sweep(n)
    for start, stop in WINDOWS:
        window = values[start:stop]
        distinct, made = measure(calls, lambda: trie.distinct_in_range(start, stop))
        assert dict(distinct) == Counter(window)
        assert made == Counter({"rank_many": len(traversed_nodes(trie, window))})

        prefix = directory_of(window[0])
        under = [value for value in window if value.startswith(prefix)]
        above = len(prefix_path_nodes(trie, prefix))
        distinct, made = measure(
            calls, lambda: trie.distinct_in_range(start, stop, prefix=prefix)
        )
        assert dict(distinct) == Counter(under)
        # The prefix walk maps both ends down with one rank each per node.
        assert made == Counter(
            {"rank": 2 * above,
             "rank_many": len(traversed_nodes(trie, under, skip=above))}
        )
