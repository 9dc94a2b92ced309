#!/usr/bin/env python3
"""Section 6 in action: dynamic Wavelet Trees over a 64-bit universe.

A sequence of 64-bit integers with a small working alphabet cannot be handled
by a classic dynamic Wavelet Tree without building the full universe tree
(depth 64).  A dynamic Wavelet Trie on the raw 64-bit encoding only stores
the working alphabet, but its height depends on which values they are: on
the powers of two every value branches off the all-zeros spine at its own
depth, so the trie is as tall as the alphabet is large.  The Section 6
construction hashes values with a random odd multiplier and stores the
hashes MSB-first (the high-order bits of the product are the ones that tell
values apart) in a dynamic Wavelet Trie, and the resulting tree is balanced
around log2(|working alphabet|) with high probability -- whatever the
values and the universe.

Run with:  python examples/numeric_sequences.py
"""

import math
import random

from repro.core.dynamic import DynamicWaveletTrie
from repro.tries.binarize import FixedWidthIntCodec
from repro.wavelet import BalancedDynamicWaveletTree


def main() -> None:
    universe = 2 ** 64
    rng = random.Random(7)
    alphabet = [1 << k for k in range(60)]
    values = [rng.choice(alphabet) for _ in range(2000)]
    distinct = len(set(values))
    print(f"universe                   : 2^64")
    print(f"sequence length            : {len(values)}")
    print(f"working alphabet           : {distinct} distinct powers of two")
    print()

    balanced = BalancedDynamicWaveletTree(universe=universe, values=values, seed=5)
    print("=== hashed (Section 6) dynamic Wavelet Tree ===")
    print(f"max path height            : {balanced.max_height()}")
    print(f"average height             : {balanced.average_height():.2f}")
    print(f"Theorem 6.2 bound (alpha=1): {balanced.theoretical_height_bound(1.0):.1f}")
    print(f"log2(universe)             : {math.log2(universe):.0f}")
    print()

    # The unhashed trie on the raw fixed-width integers degenerates: its
    # height grows with the alphabet, not with its logarithm.
    raw = DynamicWaveletTrie(values, codec=FixedWidthIntCodec(64))
    raw_height = max(raw.height_of(value) for value in set(values))
    print("=== unhashed trie on the raw 64-bit encoding (for contrast) ===")
    print(f"max path height            : {raw_height}")
    print()

    print("=== the sequence interface still works on numbers ===")
    needle = values[0]
    print(f"count({needle})        : {balanced.count(needle)}")
    print(f"select({needle}, 0)    : {balanced.select(needle, 0)}")
    balanced.insert(123456789, 10)
    print(f"inserted 123456789 at 10; access(10) = {balanced.access(10)}")
    removed = balanced.delete(10)
    print(f"deleted it again (was {removed})")


if __name__ == "__main__":
    main()
