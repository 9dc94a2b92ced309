"""The bytes of a frozen image are pinned.

Every structure whose image holds RRR or plain node bitvectors is written
from fixed inputs and its SHA-256 compared with a pinned prefix, under every
kernel backend.  The RRR vectors inside come from both builds: the one-shot
``RRRBitVector`` build (the static tries, an append-only trie's static
form, the Huffman tree, the FM-index's BWT) and
:class:`~repro.bitvector.rrr.IncrementalRRRBuilder` (the frozen tiers of a
tiered trie).  A changed prefix means a changed file format: bump
``IMAGE_VERSION`` with it, and re-pin.
"""

import hashlib

import pytest

from repro.bits import kernel
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.storage import IMAGE_VERSION, dumps_image
from repro.text.fm_index import FMIndex
from repro.wavelet.huffman import HuffmanWaveletTree


def _lcg(seed, count):
    """``count`` pseudo-random 32-bit numbers from a fixed 64-bit LCG."""
    state = seed
    out = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append(state >> 32)
    return out


# Skewed paths with shared prefixes: most rows fall in a few directories.
ROWS = [
    f"/{['home', 'api', 'static', 'blog'][r % 7 % 4]}/{r % 97 % 23}/p{r % 5}"
    for r in _lcg(1, 3000)
]
SYMBOLS = [min(r % 1000 // 17, r % 61) for r in _lcg(2, 5000)]
TEXT = "".join("abracadabra banana bandana "[r % 27] for r in _lcg(3, 4000))


def _tiered():
    tiered = TieredWaveletTrie(active_capacity=256, compact_budget=1)
    tiered.extend(ROWS)
    assert sum(row["state"] == "frozen" for row in tiered.tier_info()) >= 2
    return tiered


STRUCTURES = {
    "static_rrr": lambda: WaveletTrie(ROWS, bitvector="rrr"),
    "static_plain": lambda: WaveletTrie(ROWS, bitvector="plain"),
    "append_only": lambda: AppendOnlyWaveletTrie(ROWS),
    "tiered": _tiered,
    "huffman": lambda: HuffmanWaveletTree(SYMBOLS),
    "fm_index_rrr": lambda: FMIndex(TEXT, bitvector="rrr"),
}

PINNED = {
    "append_only": "535bb9f39a3cdaf1",
    "fm_index_rrr": "6afe2e3aa09f8a34",
    "huffman": "76a7e5a5e7b3660d",
    "static_plain": "e1051918a8626eab",
    "static_rrr": "2e0da1da6f7efbab",
    "tiered": "8761dfad89ed988c",
}


@pytest.fixture(params=kernel.available_backends())
def backend(request):
    previous = kernel.use_backend(request.param)
    yield request.param
    kernel.use_backend(previous)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_image_bytes_are_pinned(backend, name):
    assert IMAGE_VERSION == 6
    data = dumps_image(STRUCTURES[name]())
    assert hashlib.sha256(data).hexdigest()[:16] == PINNED[name]
