"""Documentation consistency gates.

These tests keep the docs tree honest:

* every intra-repo markdown link (``[text](path)``) in the living docs
  resolves to an existing file;
* every backticked repo path (``docs/...``, ``src/...``, ``tests/...``,
  ``examples/...``, ``bench/...``) mentioned in the living docs exists;
* every backticked dotted Python name (``repro.x.y``) mentioned in the
  living docs imports and resolves;
* every ``repro`` CLI subcommand is documented in ``docs/experiments.md``;
* source docstrings that cite a design document point at a file that is
  actually in the tree (the seed shipped a ``DESIGN.md`` citation with no
  ``DESIGN.md``).

The living docs are ``README.md`` and ``docs/*.md``.  The other root
markdown files (``CHANGES.md``, ``ROADMAP.md`` and the like) are records:
they name files as they were when written, so a file deleted since stays
named there and is not checked.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The living docs, covered by the link and path checks.
MARKDOWN_FILES = [REPO_ROOT / "README.md"] + sorted(
    (REPO_ROOT / "docs").glob("*.md"))

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_BACKTICK_PATH = re.compile(
    r"`((?:docs|src|tests|examples|bench)/[A-Za-z0-9_\-./]+"
    r"\.(?:md|py|json|yml))`")
_PYTHON_NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then look up the
    rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            node = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(node, attribute):
                return False
            node = getattr(node, attribute)
        return True
    return False


def test_markdown_files_exist():
    assert MARKDOWN_FILES, "no markdown files found"
    names = {path.name for path in MARKDOWN_FILES if path.exists()}
    for required in ("README.md", "ARCHITECTURE.md", "DESIGN.md",
                     "experiments.md", "scenarios.md"):
        assert required in names, f"{required} is missing from the docs tree"


def test_intra_repo_markdown_links_resolve():
    broken = []
    for path in MARKDOWN_FILES:
        for target in _LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                broken.append(f"{path.relative_to(REPO_ROOT)} -> {target}")
    assert not broken, "broken markdown links:\n" + "\n".join(broken)


def test_backticked_repo_paths_exist():
    missing = []
    for path in MARKDOWN_FILES:
        for reference in _BACKTICK_PATH.findall(path.read_text()):
            if not (REPO_ROOT / reference).exists():
                missing.append(f"{path.relative_to(REPO_ROOT)} -> {reference}")
    assert not missing, "dangling file references:\n" + "\n".join(missing)


def test_backticked_python_names_resolve():
    names = {(path, name) for path in MARKDOWN_FILES
             for name in _PYTHON_NAME.findall(path.read_text())}
    assert names, "expected backticked repro.* names in the living docs"
    dangling = sorted(f"{path.relative_to(REPO_ROOT)} -> {name}"
                      for path, name in names if not _resolves(name))
    assert not dangling, "dangling Python names:\n" + "\n".join(dangling)


def test_every_cli_subcommand_is_documented():
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if hasattr(action, "choices") and action.choices)
    commands = set(subparsers.choices)
    reference = (REPO_ROOT / "docs" / "experiments.md").read_text()
    undocumented = sorted(
        command for command in commands
        if not re.search(rf"`repro {re.escape(command)}", reference))
    assert not undocumented, (
        "repro subcommands missing from docs/experiments.md: "
        + ", ".join(undocumented))


def test_design_doc_citations_resolve():
    cited = False
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text()
        if "DESIGN.md" in text:
            cited = True
            assert "docs/DESIGN.md" in text, (
                f"{path.relative_to(REPO_ROOT)} cites DESIGN.md without its "
                f"docs/ path")
    assert cited, "expected at least one docs/DESIGN.md citation in src/"
    assert (REPO_ROOT / "docs" / "DESIGN.md").exists()
