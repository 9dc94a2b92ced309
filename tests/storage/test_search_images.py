"""Search images are a fixed set of sections whatever the alphabet.

A Huffman wavelet tree writes its code tree's preorder flags, its leaf
symbols and one shared node vector; an FM-index adds its alphabet's code
points, the marked rows and the samples; a document store adds the
document starts.  So an image over 4 symbols and one over 200 name the same
sections, and their headers differ only in the digits of numbers (the
model is ``test_header_is_constant_in_the_node_count`` for the tries).
"""

import random
import re

import pytest

from repro.bits.packed import PackedIntVector
from repro.bitvector.sparse import SparseBitVector
from repro.db.doc_store import DocumentStore
from repro.exceptions import SerializationError
from repro.storage import dumps_image, loads_image
from repro.storage.image import FrozenImage
from repro.text.fm_index import FMIndex
from repro.wavelet.huffman import HuffmanWaveletTree


def _body(count, seed=3):
    """A skewed text over ``count`` characters, each present: letters and
    symbols from above ASCII, so the alphabet is no JSON-friendly run."""
    rng = random.Random(seed)
    alphabet = [chr(0xA1 + rank) for rank in range(count)]
    weights = [1.0 / (rank + 1) for rank in range(count)]
    return "".join(alphabet) + "".join(rng.choices(alphabet, weights, k=3_000))


def _text(sigma):
    """A text whose BWT has ``sigma`` symbols: the NUL separator, sigma - 2
    other characters and the terminator."""
    return "\x00".join(_body(sigma - 2)[start : start + 50] for start in range(0, 3_100, 50))


def _documents(sigma):
    body = _body(sigma - 2)
    return [body[start : start + 50] for start in range(0, len(body), 50)]


BUILDERS = {
    "huffman_plain": lambda sigma: HuffmanWaveletTree(
        [ord(char) for char in _text(sigma)] + [-1]
    ),
    "fm_plain": lambda sigma: FMIndex(_text(sigma), sa_sample=8, bitvector="plain"),
    "fm_rrr": lambda sigma: FMIndex(_text(sigma), sa_sample=8, bitvector="rrr"),
    "document_store": lambda sigma: DocumentStore(_documents(sigma), sa_sample=8),
}


def _layout(obj):
    data = dumps_image(obj)
    header = data[20 : 20 + int.from_bytes(data[8:16], "little")]
    return FrozenImage(data).section_names(), header, data


def _sigma(obj):
    tree = obj.fm_index._bwt if isinstance(obj, DocumentStore) else getattr(obj, "_bwt", obj)
    return len(tree.codes)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_sections_and_header_do_not_grow_with_the_alphabet(name):
    small, large = BUILDERS[name](4), BUILDERS[name](200)
    assert (_sigma(small), _sigma(large)) == (4, 200)
    small_sections, small_header, small_data = _layout(small)
    large_sections, large_header, large_data = _layout(large)
    assert small_sections == large_sections
    assert re.sub(rb"[0-9]+", b"0", small_header) == re.sub(rb"[0-9]+", b"0", large_header)
    for obj, data in ((small, small_data), (large, large_data)):
        opened = loads_image(data)
        if isinstance(obj, HuffmanWaveletTree):
            assert opened.codes == obj.codes and opened.to_list() == obj.to_list()
        else:
            assert len(opened) == len(obj)
            fm = opened.fm_index if isinstance(opened, DocumentStore) else opened
            expected = obj.fm_index if isinstance(obj, DocumentStore) else obj
            assert fm.alphabet == expected.alphabet
            assert fm.extract(0, len(fm)) == expected.extract(0, len(expected))


def test_a_string_symbol_tree_is_not_imaged():
    with pytest.raises(SerializationError, match="int64 symbols"):
        dumps_image(HuffmanWaveletTree(list("abracadabra")))


def test_marks_must_match_the_inverse_samples():
    """Every sampled text position has exactly one row, so an FM image with
    one marked row (and its suffix-array sample) too few or too many does
    not open, though each mark still has its sample."""
    fm = FMIndex(_text(4), sa_sample=8)
    rows = fm._marked.select_many(1, range(fm._marked.ones))
    samples = fm._samples.to_list()
    unmarked = min(set(range(len(fm._bwt))) - set(rows))
    for marked, sampled in (
        (rows[:-1], samples[:-1]),
        (sorted(rows + [unmarked]), samples + [0]),
    ):
        broken = FMIndex._from_parts(
            len(fm), fm.alphabet, fm.sa_sample, fm.bitvector_kind, fm._bwt,
            SparseBitVector(len(fm._bwt), marked),
            PackedIntVector(fm._samples.width, sampled),
            fm._isa_samples,
        )
        with pytest.raises(SerializationError, match="parts of different texts"):
            loads_image(dumps_image(broken))
