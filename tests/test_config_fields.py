"""Every ``FrameworkConfig`` field is a knob someone turns.

A field that no caller ever sets is a constant in disguise: it doubles
the configurations a reader has to rule out and tests nothing.  This
guard scans the sources of ``src/``, ``bench/``, ``examples/`` and
``tests/`` and requires each field to be *written* somewhere outside
``core/autoconfig.py``, where a write is

* a call keyword named after the field (``FrameworkConfig(x=...)``),
* a string key in a dict literal or a subscript store
  (a scenario's ``framework={"x": ...}``, ``values["x"] = ...``), or
* an attribute store on a receiver other than ``self``
  (``config.x = ...``).

A field that fails it should become a named constant instead.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Set

from repro.core.autoconfig import FrameworkConfig

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples", "tests")
DEFINITION = ROOT / "src" / "repro" / "core" / "autoconfig.py"


def _string_key(node: ast.AST) -> Set[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def written_names(tree: ast.AST) -> Set[str]:
    """Names a module writes as a keyword, a dict or subscript key, or an
    attribute of something other than ``self``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            names.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    names |= _string_key(key)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store):
            names |= _string_key(node.slice)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
            names.add(node.attr)
    return names


def test_every_framework_config_field_is_written_outside_its_definition():
    written: Set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == DEFINITION:
                continue
            written |= written_names(ast.parse(path.read_text(), str(path)))
    fields = [spec.name for spec in dataclasses.fields(FrameworkConfig)]
    unset = [name for name in fields if name not in written]
    assert not unset, (
        f"FrameworkConfig fields no caller sets: {unset}; fold each into a "
        f"named constant")


def test_the_scan_sees_each_kind_of_write():
    tree = ast.parse(
        "f(a=1)\n"
        "g = {'b': 2}\n"
        "values['c'] = 3\n"
        "config.d = 4\n"
        "self.e = 5\n"
        "read = config.f\n")
    assert written_names(tree) == {"a", "b", "c", "d"}
