"""Every verdict of ``tests/tools/entry_point_verdicts.txt`` names code
that exists.

``tests/tools/line_coverage.py --entry-points`` (a CI job, about four
minutes) fails on a ``src/repro`` function that no entry point enters and
no verdict explains, and on a verdict that matches no such function.  This
check is the cheap half, from the source text alone: each verdict has a
reason, and its ``module:qualname`` patterns match at least one function
defined under ``src/repro``, so a deleted or renamed function cannot leave
its verdict behind.
"""

from __future__ import annotations

import ast
import fnmatch
import importlib.util
from pathlib import Path
from typing import Iterator

TOOL = Path(__file__).resolve().parent / "tools" / "line_coverage.py"


def _tool():
    spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qualnames(node: ast.AST, prefix: str = "") -> Iterator[str]:
    """The ``__qualname__`` of every function defined in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name
            yield from qualnames(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from qualnames(child, f"{prefix}{child.name}.")
        else:
            yield from qualnames(child, prefix)


def test_every_verdict_has_a_reason_and_matches_a_function():
    tool = _tool()
    functions = [(tool.module_name(path), name)
                 for path in sorted(tool.SRC.rglob("*.py"))
                 for name in qualnames(ast.parse(path.read_text()))]
    verdicts = tool.read_verdicts()
    assert verdicts
    unmatched = [f"{module}:{qualname}" for module, qualname, _ in verdicts
                 if not any(fnmatch.fnmatchcase(defined_module, module)
                            and fnmatch.fnmatchcase(name, qualname)
                            for defined_module, name in functions)]
    assert not unmatched, "verdicts that match no function:\n" + "\n".join(
        unmatched)
    assert all(reason for _, _, reason in verdicts)


def test_qualnames_follow_the_interpreter():
    source = ("def f():\n    def g(): pass\n    class C:\n"
              "        def m(self): pass\nclass D:\n    def n(self): pass\n")
    assert list(qualnames(ast.parse(source))) == [
        "f", "f.<locals>.g", "f.<locals>.C.m", "D.n"]
