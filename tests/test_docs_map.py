"""Guard the documentation tree against refactor rot.

``docs/paper_map.md`` and ``docs/simulator.md`` name concrete code symbols
(theorem-to-code rows, telemetry fields, simulator modes).  A rename or
move that forgets the docs would silently rot them; these tests extract
every backticked dotted ``repro...`` symbol from the documents and assert
that each one still imports (modules) or resolves by attribute access
(classes, functions, methods).  A second layer checks every *relative
link* in ``docs/*.md`` and the README: each must point at a file that
exists.  CI runs this file as its own ``docs`` job, so a docs regression
is visible as a docs failure rather than a generic test failure.

A third layer scans ``src/repro``: every ``*.md`` path a module names
must exist (relative to the repository root), and, guarding the oracle
contract of ``docs/architecture.md`` -- ``src/`` has one implementation
per layer -- no module may name the retired dual-path switch or a seed
oracle, or import from the test suite.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
PAPER_MAP = DOCS_DIR / "paper_map.md"
SIMULATOR_DOC = DOCS_DIR / "simulator.md"
SYMBOL_CHECKED_DOCS = [PAPER_MAP, SIMULATOR_DOC]
SOURCE_FILES = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
# The retired switch, the seed implementations that moved to tests/oracles/,
# the label measurement path of Shortcut, the label-space id keys of the
# simulator and its fault queue, the second bodies of the structure layer,
# the unsorted-adjacency knob, the native generators' nx twins, the
# per-message aggregation scheduler's helpers and the per-budget block
# count with the engine's slot keys (the one-pass sweep replaced them).
RETIRED_NAMES = (
    "core_enabled",
    "networkx_reference_paths",
    "ReferenceSimulator",
    "FaultRuntime",
    "_partwise_aggregate_reference",
    "_boruvka_mst_reference",
    "_approximate_min_cut_reference",
    "_congestion_capped_reference",
    "measure_reference",
    "block_parameter_reference",
    "_EpochUnionFind",
    "_edge_set_multiplicities",
    "_raw_edge_sets",
    "_program_id_key",
    "_canonical_identity",
    "_bfs_spanning_tree_core",
    "_validate_native",
    "center_root",
    "sort_neighbours",
    "sorted_adjacency",
    "ktree_chain_reference",
    "clique_sum_chain_reference",
    "NATIVE_GENERATORS",
    "_cell_subtree",
    "CellShortcutter",
    "default_cell_shortcutter",
    "cell_shortcutter",
    "require_planar",
    "clique_sum_view",
    "bag_host",
    "_bag_hosts",
    "path_to_root",
    "path_edges",
    "subgraph_copy",
    "decomposition_for_parts",
    "enqueue",
    "_int_array",
    "_BfsFactory",
    "_RobustBfsFactory",
    "_FloodMaxFactory",
    "_BroadcastFactory",
    "_RobustBroadcastFactory",
    "_ConvergecastFactory",
    "_RobustConvergecastFactory",
    "retry_budget",
    "_resolve_schedule",
    "_indptr_list",
    "_indices_list",
    "_weights_list",
    "neighbor_slice",
    "edge_weight",
    "part_connected",
    "part_set_failed",
    "size_of",
    "normal_cells",
    "special_cells",
    "_require_connected_core",
    "_member_keys",
    "_tops",
    "max_part_blocks",
)
SYMBOL_PATTERN = re.compile(r"`(repro(?:\.\w+)+)`")
# [text](target) markdown links; external schemes and pure anchors are skipped.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Markdown paths named in source text, e.g. ``docs/simulator.md``.
MARKDOWN_PATH_PATTERN = re.compile(r"[\w./-]+\.md\b")


def _resolve(dotted: str):
    """Import the longest module prefix, then walk the rest by attribute."""
    parts = dotted.split(".")
    module = None
    cut = len(parts)
    while cut > 0:
        try:
            module = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            cut -= 1
    if module is None:
        raise AssertionError(f"no importable module prefix in {dotted!r}")
    obj = module
    for attribute in parts[cut:]:
        if not hasattr(obj, attribute):
            raise AssertionError(f"{dotted!r}: {obj!r} has no attribute {attribute!r}")
        obj = getattr(obj, attribute)
    return obj


def test_paper_map_exists_and_names_enough_symbols():
    assert PAPER_MAP.exists(), "docs/paper_map.md is missing"
    symbols = set(SYMBOL_PATTERN.findall(PAPER_MAP.read_text(encoding="utf-8")))
    # The map covers Theorem 1, Theorems 4-9, Definitions 9-13 and
    # Corollary 1; that cannot be done honestly in fewer symbols than this.
    assert len(symbols) >= 25, f"paper map names only {len(symbols)} symbols"


@pytest.mark.parametrize("document", SYMBOL_CHECKED_DOCS, ids=lambda p: p.name)
def test_every_symbol_in_docs_resolves(document):
    assert document.exists(), f"docs/{document.name} is missing"
    symbols = sorted(set(SYMBOL_PATTERN.findall(document.read_text(encoding="utf-8"))))
    failures = []
    for dotted in symbols:
        try:
            _resolve(dotted)
        except AssertionError as error:
            failures.append(str(error))
    assert not failures, f"stale symbols in docs/{document.name}:\n" + "\n".join(failures)


def test_architecture_doc_exists_and_is_linked():
    architecture = DOCS_DIR / "architecture.md"
    assert architecture.exists(), "docs/architecture.md is missing"
    readme = (DOCS_DIR.parent / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme, "README must link the architecture guide"
    assert "docs/paper_map.md" in readme, "README must link the paper map"


def test_simulator_doc_exists_and_is_linked():
    assert SIMULATOR_DOC.exists(), "docs/simulator.md is missing"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/simulator.md" in readme, "README must link the simulator guide"
    architecture = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
    assert "simulator.md" in architecture, (
        "docs/architecture.md must link the simulator guide"
    )


def _relative_links(markdown: pathlib.Path) -> list[str]:
    links = []
    for target in LINK_PATTERN.findall(markdown.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])
    return links


def test_relative_links_in_docs_resolve():
    documents = sorted(DOCS_DIR.glob("*.md")) + [REPO_ROOT / "README.md"]
    broken = []
    for document in documents:
        base = document.parent
        for target in _relative_links(document):
            if not (base / target).exists():
                broken.append(f"{document.relative_to(REPO_ROOT)} -> {target}")
    assert not broken, "broken relative links:\n" + "\n".join(broken)


def test_source_names_no_switch_and_no_oracle():
    failures = []
    for source in SOURCE_FILES:
        text = source.read_text(encoding="utf-8")
        where = source.relative_to(REPO_ROOT)
        named = [name for name in RETIRED_NAMES if re.search(rf"\b{name}\b", text)]
        if named:
            failures.append(f"{where} names retired symbols {named}")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in ("tests", "oracles"):
                    failures.append(f"{where} imports {module} from the test suite")
    assert not failures, "src/ must hold one implementation per layer:\n" + "\n".join(failures)


def test_markdown_paths_named_in_source_exist():
    missing = []
    for source in SOURCE_FILES:
        for path in sorted(set(MARKDOWN_PATH_PATTERN.findall(source.read_text(encoding="utf-8")))):
            if not (REPO_ROOT / path).exists():
                missing.append(f"{source.relative_to(REPO_ROOT)} names {path}")
    assert not missing, "src/ names missing documents:\n" + "\n".join(missing)
