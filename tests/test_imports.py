"""Import hygiene: every package imports alone and loads only what it uses.

Each check runs in a fresh interpreter, because this process has long
imported everything.  The package roots ``repro``, ``repro.core`` and
``repro.experiments`` are lazy; an eager one would bring back the cycle
``topology.emulator`` -> ``core.ipam`` -> ``core/__init__`` ->
``core.autoconfig`` -> ``topology.emulator``, and make the kernel and the
CLI's ``--help`` load every experiment.  One check needs no interpreter:
an AST scan that no module imports a name it never loads.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted("repro." + path.parent.name
                  for path in (SRC / "repro").glob("*/__init__.py"))


def _loaded_after(statement: str) -> List[str]:
    """The ``repro`` modules a fresh interpreter holds after
    ``statement``."""
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps(sorted(name for name in sys.modules "
            "if name.split('.')[0] == 'repro')))")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", PACKAGES + ["repro.cli"])
def test_imports_alone(module):
    assert module in _loaded_after(f"import {module}")


def test_kernel_loads_only_itself():
    loaded = _loaded_after("import repro.sim")
    assert [name for name in loaded
            if name != "repro" and name.split(".")[1] != "sim"] == []


def test_cli_help_loads_no_experiment():
    loaded = _loaded_after(
        "from repro.cli import main\n"
        "try:\n    main(['--help'])\nexcept SystemExit:\n    pass")
    assert "repro.cli" in loaded
    assert [name for name in loaded if name.split(".")[1:2]
            in (["experiments"], ["scenarios"], ["core"])] == []


def unused_imports(tree: ast.AST) -> List[Tuple[int, str]]:
    """``(line, name)`` for each name a module imports and never loads.

    A load is a ``Name`` in load context or the name as a word inside a
    string constant (a quoted annotation, a ``getattr`` key); names the
    module lists in ``__all__`` are re-exports and count as used.
    """
    imported: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    loaded: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loaded.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in loaded)


def test_no_module_imports_a_name_it_never_loads():
    unused = [f"{path.relative_to(SRC.parent)}:{line} {name}"
              for path in sorted((SRC / "repro").rglob("*.py"))
              for line, name in unused_imports(
                  ast.parse(path.read_text(), str(path)))]
    assert not unused, (
        "imported and never used; delete each import:\n" + "\n".join(unused))


def test_the_import_scan_sees_loads_strings_and_exports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List, Set\n"
        "from x import y as z, w\n"
        "__all__ = ['w']\n"
        "def f(a: Dict) -> 'List[int]':\n"
        "    return os.path.join(a)\n")
    assert unused_imports(tree) == [(3, "Set"), (4, "z")]
