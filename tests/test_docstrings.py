"""Documentation gate: every public class in ``src/repro`` must be documented.

Run directly (``pytest tests/test_docstrings.py``) or via ``make docs-check``.
The walk imports every module under :mod:`repro`, so an import-time error in
any module also fails this gate.  Also enforces the kernel backend contract:
every public kernel function must exist in *both* backend modules and appear
in the contract table of docs/ARCHITECTURE.md.  And every class name,
``.py`` path, dotted ``repro.`` name and ``BENCH.json`` row that README.md,
docs/API.md and docs/ARCHITECTURE.md cite must exist, as must every dotted
``repro.`` name PAPERS.md cites and every ``repro.`` cross-reference in a
docstring.
"""

import ast
import builtins
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import repro


def iter_repro_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = [
        module.__name__
        for module in iter_repro_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not missing, f"modules without docstrings: {sorted(missing)}"


def test_every_public_class_has_a_docstring():
    missing = set()
    for module in iter_repro_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isclass(obj):
                continue
            if (obj.__module__ or "").split(".")[0] != "repro":
                continue  # re-exported stdlib/third-party names
            if not (obj.__doc__ or "").strip():
                missing.add(f"{obj.__module__}.{obj.__qualname__}")
    assert not missing, f"public classes without docstrings: {sorted(missing)}"


BATCH_API_METHODS = {
    "access_many",
    "rank_many",
    "select_many",
    "insert_many",
    "delete_many",
    "rank_prefix_many",
    "select_prefix_many",
}


def test_every_batch_api_method_states_its_cost():
    """The batch-API convention (docs/API.md): every implementation of the
    batch query/update interface must say how its cost amortises (or state
    that it is an unamortised loop)."""
    offenders = set()
    for module in iter_repro_modules():
        for cls_name, obj in vars(module).items():
            if cls_name.startswith("_") or not inspect.isclass(obj):
                continue
            if (obj.__module__ or "") != module.__name__:
                continue
            for method_name, method in vars(obj).items():
                if method_name not in BATCH_API_METHODS or not callable(method):
                    continue
                doc = (inspect.getdoc(method) or "").lower()
                if "amortis" not in doc and "amortiz" not in doc:
                    offenders.add(f"{obj.__module__}.{obj.__qualname__}.{method_name}")
    assert not offenders, (
        f"batch-API methods whose docstrings do not state their amortised "
        f"cost: {sorted(offenders)}"
    )


# ----------------------------------------------------------------------
# Kernel backend contract (docs/ARCHITECTURE.md, "Kernel backends")
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
ARCHITECTURE_MD = REPO_ROOT / "docs" / "ARCHITECTURE.md"


def test_kernel_backends_export_the_same_contract():
    """A public kernel function existing in one backend but not the other is
    a contract violation: new primitives must land in both backends."""
    from repro.bits import kernel
    from repro.bits.kernel import npkernel, pykernel

    contract = set(kernel.KERNEL_CONTRACT)
    assert set(pykernel.__all__) == contract, (
        "pykernel.__all__ drifted from KERNEL_CONTRACT: "
        f"{set(pykernel.__all__) ^ contract}"
    )
    assert set(npkernel.__all__) == contract, (
        "npkernel.__all__ drifted from KERNEL_CONTRACT: "
        f"{set(npkernel.__all__) ^ contract}"
    )
    missing = {
        f"{module.__name__}.{name}"
        for module in (pykernel, npkernel)
        for name in contract
        if not hasattr(module, name)
    }
    assert not missing, f"contract names not implemented: {sorted(missing)}"
    # The façade itself must expose every contract name too.
    facade_missing = [name for name in contract if not hasattr(kernel, name)]
    assert not facade_missing, f"façade misses: {facade_missing}"


def test_every_kernel_contract_name_has_a_caller():
    """A contract name that no code outside the kernel reads is dead weight
    both backends must carry: every ``KERNEL_CONTRACT`` name must appear as
    a name or an attribute in the code of some ``repro`` module outside
    ``repro.bits.kernel`` (docstrings and comments do not count)."""
    from repro.bits import kernel

    kernel_dir = REPO_ROOT / "src" / "repro" / "bits" / "kernel"
    used = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        if kernel_dir in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = sorted(set(kernel.KERNEL_CONTRACT) - used)
    assert not uncalled, f"kernel contract names no code outside the kernel uses: {uncalled}"


def test_tier_lifecycle_section_matches_the_code():
    """The ARCHITECTURE.md "Tier lifecycle" section must exist and name every
    trie flavour, plus the lifecycle vocabulary (the freezer, the one-shot
    form, and the tiered knobs) -- so adding a flavour or renaming a
    transition forces the doc to follow."""
    from repro.core import tiers
    from repro.core.append_only import AppendOnlyWaveletTrie
    from repro.core.dynamic import DynamicWaveletTrie
    from repro.core.static import WaveletTrie

    text = ARCHITECTURE_MD.read_text(encoding="utf-8")
    assert "### Tier lifecycle" in text, "Tier lifecycle section missing"
    section = text.split("### Tier lifecycle", 1)[1].split("\n### ", 1)[0]
    flavours = [
        WaveletTrie,
        AppendOnlyWaveletTrie,
        DynamicWaveletTrie,
        tiers.TieredWaveletTrie,
    ]
    for cls in flavours:
        assert cls.__name__ in section, (
            f"{cls.__name__} is absent from the Tier lifecycle section"
        )
    for name in (
        "TrieFreezer",
        "freeze_trie",
        "active_capacity",
        "compact_budget",
        "mutable_start",
    ):
        assert name in section, (
            f"lifecycle term '{name}' missing from the Tier lifecycle section"
        )


def test_kernel_contract_table_matches_architecture_doc():
    """The ARCHITECTURE.md contract table and ``kernel.KERNEL_CONTRACT`` must
    list exactly the same names (the table is the documented contract)."""
    from repro.bits import kernel

    text = ARCHITECTURE_MD.read_text(encoding="utf-8")
    assert "## Kernel backends" in text, "Kernel backends section missing"
    section = text.split("### The backend contract", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        first_cell = line.split("|")[1]
        documented.update(re.findall(r"`([A-Za-z_][A-Za-z_0-9]*)`", first_cell))
    contract = set(kernel.KERNEL_CONTRACT)
    undocumented = contract - documented
    stale = documented - contract
    assert not undocumented, (
        f"contract functions missing from the ARCHITECTURE.md table: "
        f"{sorted(undocumented)}"
    )
    assert not stale, (
        f"ARCHITECTURE.md table rows without a contract function: "
        f"{sorted(stale)}"
    )


def test_serving_section_matches_the_code():
    """The ARCHITECTURE.md "Serving" section must exist and name the serving
    layer's moving parts (server, shard, tick loop and function, snapshot,
    fault seam, metrics), *every* wire error code and *every* field of
    ``ServerConfig`` and ``ClusterConfig`` -- so adding a code, an option or
    renaming a component forces the doc to follow."""
    import dataclasses

    from repro.serving import ClusterConfig, ServerConfig, protocol

    text = ARCHITECTURE_MD.read_text(encoding="utf-8")
    assert "## Serving" in text, "Serving section missing"
    section = text.split("## Serving", 1)[1].split("\n## ", 1)[0]
    for name in (
        "IndexServer",
        "IndexShard",
        "TickLoop",
        "run_read_tick",
        "check_group",
        "ColumnSnapshot",
        "FaultInjector.before_batch",
        "ServingMetrics",
        "max_pending",
        "coalesce_window",
        "version",
        # The multi-process cluster's moving parts and guarantees.
        "ClusterSupervisor",
        "ClusterRouter",
        "PartitionMap",
        "export_shard_images",
        "merge_snapshots",
        "manifest.json",
        "repro.serving.worker",
        "max_restarts",
        "restart_backoff",
        "pipeline_depth",
        "byte-identical",
    ):
        assert name in section, (
            f"serving term '{name}' missing from the Serving section"
        )
    for code in protocol.ERROR_CODES:
        assert f"`{code}`" in section, (
            f"error code '{code}' missing from the Serving section"
        )
    for config in (ServerConfig, ClusterConfig):
        for field in dataclasses.fields(config):
            assert f"`{field.name}`" in section, (
                f"{config.__name__}.{field.name} missing from the Serving section"
            )


def test_full_text_search_section_matches_the_code():
    """The ARCHITECTURE.md "Full-text search" section must exist and name the
    text layer's moving parts (index, store, construction, the backward-search
    recurrence, the sampling knob, the batched paths and their measured
    baseline) -- so renaming a component or dropping the knob forces the doc
    to follow."""
    text = ARCHITECTURE_MD.read_text(encoding="utf-8")
    assert "## Full-text search" in text, "Full-text search section missing"
    section = text.split("## Full-text search", 1)[1].split("\n## ", 1)[0]
    for name in (
        "FMIndex",
        "DocumentStore",
        "suffix_array",
        "HuffmanWaveletTree",
        "sa_sample",
        "rank_many",
        "count_many",
        "_interval_scalar",
        "locate",
        "extract",
        "LF mapping",
        "Burrows",
        "backward search",
        "BENCH.json",
        "search build",
        "SparseBitVector",
        "terminator",
    ):
        assert name in section, (
            f"full-text-search term '{name}' missing from the section"
        )
    # The knob really is the constructor's; a rename must update the doc.
    from repro.text import FMIndex
    import inspect

    assert "sa_sample" in inspect.signature(FMIndex).parameters


# ----------------------------------------------------------------------
# Names the user-facing docs cite must exist
# ----------------------------------------------------------------------
DOCUMENTS = ("README.md", "docs/API.md", "docs/ARCHITECTURE.md")

# The paper's notation and environment names, written like class names.
NOTATION = {
    "Access", "Rank", "Select", "Init", "H0", "LB", "PT", "Sset",
    "PYTHONPATH", "DIR",
}


def test_backticked_class_names_exist():
    """A backticked class-style name must exist: a capitalised run of two or
    more letters and digits that ends its span or is followed by a call or
    an attribute (``WaveletTrie``, ``FMIndex(text)``,
    ``ClusterConfig.max_restarts``).  It must be defined at module level by
    some ``repro`` module, or be a builtin or the paper's notation -- so a
    renamed or deleted class cannot stay in the docs."""
    defined = set(dir(builtins)) | NOTATION
    for module in iter_repro_modules():
        defined.update(vars(module))
    missing = set()
    for document in DOCUMENTS:
        text = (REPO_ROOT / document).read_text(encoding="utf-8")
        for name in re.findall(r"`([A-Z][A-Za-z0-9]+)(?=[`(.])", text):
            if name not in defined:
                missing.add(f"{document}: {name}")
    assert not missing, f"docs name undefined classes: {sorted(missing)}"


def _repository_python_files():
    """Every ``.py`` file of the repository, as a path from its root."""
    skipped = {"__pycache__", "build", "dist"}
    return [
        path.relative_to(REPO_ROOT).as_posix()
        for path in REPO_ROOT.rglob("*.py")
        if not any(
            part in skipped or part.startswith(".")
            for part in path.relative_to(REPO_ROOT).parts
        )
    ]


def test_backticked_python_paths_exist():
    """A backticked ``.py`` path must be the tail of a file's path in the
    repository (```kernel/npkernel.py``` is src/repro/bits/kernel/npkernel.py),
    so a deleted or moved module cannot stay cited."""
    files = ["/" + path for path in _repository_python_files()]
    missing = set()
    for document in DOCUMENTS:
        text = (REPO_ROOT / document).read_text(encoding="utf-8")
        for cited in re.findall(r"`([A-Za-z0-9_./-]+\.py)`", text):
            if not any(path.endswith("/" + cited.lstrip("./")) for path in files):
                missing.add(f"{document}: {cited}")
    assert not missing, f"docs cite .py files that do not exist: {sorted(missing)}"


def _resolves(dotted):
    """True when ``dotted`` names a module, or an attribute reached from
    the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


# PAPERS.md points at the modules that implement each related paper.
DOTTED_NAME_DOCUMENTS = DOCUMENTS + ("PAPERS.md",)


def test_backticked_repro_names_resolve():
    """A dotted ``repro.`` name anywhere in a backticked span
    (```repro.core.tiers```, ```~repro.bits.kernel.SMALL_BATCH```,
    ```python -m repro.cli```) must resolve to a module or an attribute,
    so a renamed or deleted one cannot stay in the docs or in PAPERS.md."""
    missing = set()
    for document in DOTTED_NAME_DOCUMENTS:
        text = (REPO_ROOT / document).read_text(encoding="utf-8")
        for span in re.findall(r"`([^`]+)`", text):
            for dotted in re.findall(r"(?<![\w.])(repro(?:\.[A-Za-z_]\w*)+)", span):
                if not _resolves(dotted):
                    missing.add(f"{document}: {dotted}")
    assert not missing, f"docs cite repro names that do not resolve: {sorted(missing)}"


def test_docstring_cross_references_resolve():
    """A Sphinx cross-reference to a dotted ``repro.`` name in the source
    (``:class:`~repro.bitvector.rrr.RRRBitVector```, ``:mod:`repro.bits.kernel```)
    must resolve too, so a docstring cannot point at a deleted module."""
    missing = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for dotted in re.findall(r":[a-z]+:`~?(repro(?:\.[A-Za-z_]\w*)+)`", text):
            if not _resolves(dotted):
                missing.add(f"{path.relative_to(REPO_ROOT)}: {dotted}")
    assert not missing, f"docstrings cite repro names that do not resolve: {sorted(missing)}"


def test_cited_bench_rows_exist():
    """A backticked ``case.name`` whose case is a benchmark case
    (```search.backward_speedup```) must name a row of ``BENCH.json``, so a
    figure the docs quote cannot outlive its measurement."""
    rows = json.loads((REPO_ROOT / "BENCH.json").read_text(encoding="utf-8"))["rows"]
    names = {f"{row['case']}.{row['name']}" for row in rows}
    cases = "|".join(sorted({row["case"] for row in rows}))
    cited = set()
    missing = set()
    for document in DOCUMENTS:
        text = (REPO_ROOT / document).read_text(encoding="utf-8")
        for name in re.findall(rf"`((?:{cases})\.[a-z0-9_]+)`", text):
            cited.add(name)
            if name not in names:
                missing.add(f"{document}: {name}")
    assert not missing, f"docs cite BENCH.json rows that do not exist: {sorted(missing)}"
    assert cited, "the docs cite no BENCH.json row at all"
