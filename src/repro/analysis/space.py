"""Measured space reports for Wavelet Tries and related structures.

The report splits the measured size into the components the paper reasons
about: the bitvector payloads (which should track ``nH0(S)``), the trie labels
(``|L|``), the topology/delimiters, and the pointer overhead of the dynamic
representations (``PT``).  Benchmarks compare these numbers against the
bounds from :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.static import WaveletTrie

__all__ = ["SpaceReport", "wavelet_trie_space_report"]

_WORD = 64


@dataclass
class SpaceReport:
    """Space breakdown of a structure, in bits."""

    structure: str
    """Human-readable structure name."""

    total_bits: int = 0
    """Sum of all accounted components."""

    components: Dict[str, int] = field(default_factory=dict)
    """Per-component sizes in bits."""

    def add(self, name: str, bits: int) -> None:
        """Add a component to the report."""
        self.components[name] = self.components.get(name, 0) + int(bits)
        self.total_bits += int(bits)

    def bits_per_element(self, n: int) -> float:
        """Total bits divided by the number of sequence elements."""
        return self.total_bits / n if n else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flatten for tabular output."""
        out: Dict[str, float] = {"total_bits": self.total_bits}
        out.update(self.components)
        return out


def wavelet_trie_space_report(trie, name: Optional[str] = None) -> SpaceReport:
    """Break down the measured space of any Wavelet Trie variant.

    The static trie is charged what its ``size_in_bits`` charges: labels
    and their delimiters, the shared node vector with its window
    delimiters, its preorder internal flags as the topology, and the check
    pass's two integer tables.  Any other trie must expose ``nodes()`` yielding
    objects with ``label``, ``bitvector`` (None on leaves) and ``is_leaf``,
    and ``bitvector_bits()``, and is charged 4 words per node for its
    pointer topology (the paper's PT term).
    """
    report = SpaceReport(structure=name or type(trie).__name__)
    if isinstance(trie, WaveletTrie):
        parts = trie.succinct_space_breakdown()
        report.add("node_labels", trie.label_bits())
        report.add("label_delimiters", parts["label_delimiters"])
        report.add("node_bitvectors", trie.bitvector_bits())
        report.add("topology", parts["topology"])
        report.add("tables", trie.table_bits())
        report.components["node_count"] = trie.node_count()
        return report
    node_count = 0
    label_bits = 0
    bitvector_overhead = 0
    for node in trie.nodes():
        node_count += 1
        label_bits += len(node.label)
        overhead = getattr(node.bitvector, "overhead_bits", None)
        if callable(overhead):
            bitvector_overhead += overhead()
    report.add("node_labels", label_bits)
    # The trie's own charge: per node for the growable flavours, summed
    # over the tiers for a tiered trie.
    report.add("node_bitvectors", trie.bitvector_bits())
    if bitvector_overhead:
        report.add("bitvector_pointer_overhead", bitvector_overhead)
    report.add("topology_pointers", node_count * 4 * _WORD)
    report.components["node_count"] = node_count
    return report
