"""Import hygiene: every package imports alone and loads only what it uses.

Each check runs in a fresh interpreter, because this process has long
imported everything.  The package roots ``repro``, ``repro.core`` and
``repro.experiments`` are lazy; an eager one would bring back the cycle
``topology.emulator`` -> ``core.ipam`` -> ``core/__init__`` ->
``core.autoconfig`` -> ``topology.emulator``, and make the kernel and the
CLI's ``--help`` load every experiment.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

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
