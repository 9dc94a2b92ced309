"""Suffix-array and Burrows-Wheeler transform construction.

The FM-index builds on the suffix array of the terminator-extended text
(Manber & Myers prefix doubling): ``O(log n)`` rounds, each sorting the
positions by their current ``(rank[i], rank[i + k])`` pair and re-ranking.
Each round is one sort, so the whole construction rides on the host's sort
machinery: under the numpy kernel backend every round is a single
``np.lexsort`` plus vectorised re-ranking over int64 arrays; without numpy
the rounds fall back to Python's ``list.sort`` over rank pairs.  Both paths
produce identical arrays (the doubling comparisons are exact), which the
differential suite checks against a sorted-suffix oracle.

The input is a *code sequence*: non-negative ints with a unique smallest
terminator appended by the caller (:class:`~repro.text.fm_index.FMIndex`
maps characters to ``1..sigma`` and appends ``0``), so every suffix
comparison terminates and row 0 of the array is always the terminator
suffix.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bits import kernel

__all__ = ["suffix_array", "bwt_from_suffix_array"]


def _suffix_array_numpy(np, codes: Sequence[int]) -> List[int]:
    n = len(codes)
    rank = np.asarray(codes, dtype=np.int64)
    order = np.argsort(rank, kind="stable")
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        if k < n:
            second[: n - k] = rank[k:]
        # lexsort sorts by the *last* key first: primary rank, then rank+k.
        order = np.lexsort((second, rank))
        first_sorted = rank[order]
        second_sorted = second[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        if n > 1:
            changed[1:] = (first_sorted[1:] != first_sorted[:-1]) | (
                second_sorted[1:] != second_sorted[:-1]
            )
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(changed)
        if int(rank[order[-1]]) == n - 1:
            return order.tolist()
        k *= 2


def _suffix_array_python(codes: Sequence[int]) -> List[int]:
    n = len(codes)
    rank = list(codes)
    order = sorted(range(n), key=rank.__getitem__)
    k = 1
    while True:
        def pair(position: int):
            tail = position + k
            return (rank[position], rank[tail] if tail < n else -1)

        order.sort(key=pair)
        new_rank = [0] * n
        previous = pair(order[0])
        current = 0
        for position in order:
            key = pair(position)
            if key != previous:
                current += 1
                previous = key
            new_rank[position] = current
        rank = new_rank
        if current == n - 1:
            return order
        k *= 2


def suffix_array(codes: Sequence[int]) -> List[int]:
    """The suffix array of ``codes`` (row -> start position, ascending suffixes).

    Prefix doubling: round ``j`` sorts positions by their length-``2^j``
    prefix using the ranks of the previous round, so the total cost is
    ``O(sort(n) log n)``.  Ties between suffixes never survive to the end
    when the caller appends a unique terminator; without one the comparison
    still terminates because ranks go dense and distinct within
    ``ceil(log2 n)`` rounds (shorter suffixes rank below their extensions
    via the ``-1`` out-of-range sentinel).
    """
    if not len(codes):
        return []
    for code in codes:
        if code < 0:
            raise ValueError("suffix-array codes must be non-negative integers")
    np = kernel.array_module()
    if np is not None:
        return _suffix_array_numpy(np, codes)
    return _suffix_array_python(codes)


def bwt_from_suffix_array(codes: Sequence[int], order: Sequence[int]) -> List[int]:
    """The Burrows-Wheeler transform: ``bwt[row] = codes[order[row] - 1]``.

    Row 0's predecessor wraps to the last code, which is the terminator when
    the caller follows the terminator convention -- exactly the rotation
    form backward search expects.
    """
    if len(codes) != len(order):
        raise ValueError(
            f"codes ({len(codes)}) and suffix array ({len(order)}) lengths differ"
        )
    last = len(codes) - 1
    return [codes[position - 1] if position else codes[last] for position in order]
