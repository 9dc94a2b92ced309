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

    The argument must expose ``nodes()`` yielding objects with ``label``,
    ``bitvector`` (None on leaves) and ``is_leaf``, and ``bitvector_bits()``
    -- all three Wavelet Trie variants in :mod:`repro.core` do.
    """
    report = SpaceReport(structure=name or type(trie).__name__)
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
    # The trie's own charge: per node for the growable flavours, the shared
    # vector once plus its window delimiters for the static one.
    report.add("node_bitvectors", trie.bitvector_bits())
    if bitvector_overhead:
        report.add("bitvector_pointer_overhead", bitvector_overhead)
    # Pointer-machine charge for the trie topology: 4 words per node for the
    # dynamic variants (paper's PT term); the static variant can instead be
    # charged its succinct topology size if it exposes one.
    succinct_topology = getattr(trie, "succinct_topology_bits", None)
    if callable(succinct_topology):
        report.add("topology", succinct_topology())
    else:
        report.add("topology_pointers", node_count * 4 * _WORD)
    report.components["node_count"] = node_count
    return report
