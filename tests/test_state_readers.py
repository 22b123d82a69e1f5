"""Every attribute ``src/repro`` stores has a reader outside the tests.

A counter or a field that only its own class writes is work the program
does for nobody: it costs a store on the hot path and a line a reader
has to rule out.  This guard collects every ``self.<attr>`` store in
``src/repro`` and requires each attribute name to be *read* somewhere in
``src/``, ``bench/`` or ``examples/``, where a read is

* an attribute load (``x.attr``, ``self.attr``; ``self.attr += 1`` is a
  store, not a read), or
* a string constant equal to the name (``getattr(x, "attr")``, a
  ``__slots__`` entry, a stats key).

The rule matches names, not classes: an attribute ``count`` of one class
passes when some other class's ``count`` is read.  It is therefore a
floor, not a proof; it catches the counter nobody looks at, not every
unread field.  State a consumer wants back returns with that consumer.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
STORED = ROOT / "src" / "repro"
READERS = ("src", "bench", "examples")


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _store_targets(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _flatten(target: ast.AST) -> List[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        return [leaf for elt in target.elts for leaf in _flatten(elt)]
    return [target]


def stored_attributes(tree: ast.AST) -> List[Tuple[str, int, str]]:
    """``(attr, line, class)`` for each ``self.<attr>`` store in a module."""
    stores: List[Tuple[str, int, str]] = []

    def visit(node: ast.AST, owner: str) -> None:
        for target in _store_targets(node):
            for leaf in _flatten(target):
                if isinstance(leaf, ast.Attribute) and _is_self(leaf.value):
                    stores.append((leaf.attr, leaf.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else owner)

    visit(tree, "<module>")
    return stores


def read_names(tree: ast.AST) -> Set[str]:
    """Attribute names a module loads, and the string constants it holds."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def unread_attributes() -> List[str]:
    read: Set[str] = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= read_names(_parse(path))
    unread: Dict[Tuple[str, str], str] = {}
    for path in sorted(STORED.rglob("*.py")):
        for attr, line, owner in sorted(stored_attributes(_parse(path)),
                                        key=lambda store: store[1]):
            if attr not in read:
                unread.setdefault((owner, attr),
                                  f"{path.relative_to(ROOT)}:{line}")
    return [f"{where} {owner}.{attr}"
            for (owner, attr), where in unread.items()]


def test_every_stored_attribute_is_read_outside_the_tests():
    unread = unread_attributes()
    assert not unread, (
        f"src/repro stores {len(unread)} attribute(s) that nothing in src/, "
        f"bench/ or examples/ reads; delete each with the lines that only "
        f"maintain it:\n" + "\n".join(unread))


def test_the_scan_sees_each_kind_of_store_and_read():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n"
        "        self.a = 1\n"
        "        self.b += 1\n"
        "        self.c: int = 2\n"
        "        self.d, (self.e, x) = 3, (4, 5)\n"
        "        other.f = 6\n"
        "        return self.g + getattr(self, 'h')\n")
    assert [(attr, owner) for attr, _, owner in stored_attributes(tree)] \
        == [("a", "A"), ("b", "A"), ("c", "A"), ("d", "A"), ("e", "A")]
    assert {"g", "h"} <= read_names(tree)
    assert not {"a", "b", "c", "d", "e", "f"} & read_names(tree)
