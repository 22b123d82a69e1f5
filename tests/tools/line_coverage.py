"""The ``repro`` line-coverage figure of the tier-1 suite, stdlib only.

CI's coverage job runs the tier-1 suite under pytest-cov and fails below
90% (``--cov=repro --cov-fail-under=90``).  Where coverage.py is not
installed, this script measures the same figure with a ``sys.settrace``
line tracer::

    PYTHONPATH=src python tests/tools/line_coverage.py [pytest args...]

It runs pytest in-process (``-q -p no:cacheprovider`` plus any arguments
given), then prints the covered and executable line counts of
``src/repro``, the percentage, and the ten least-covered modules.
Executable lines are the line starts of every code object compiled from a
module (``co_lines``, so Python 3.10 or later), which is close to
coverage.py's statement count.  Code run in
other processes is not traced: the sweep's worker processes and the fresh
interpreters of ``tests/test_imports.py``.  The figure is therefore a
lower bound of what pytest-cov reports.  pytest does not collect this
file (its name does not start with ``test_``).
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import Dict, Set

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PREFIX = str(SRC) + "/"


def executable_lines(path: Path) -> Set[int]:
    """The first line of every instruction run in the module's code."""
    lines: Set[int] = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(const for const in code.co_consts
                       if hasattr(const, "co_lines"))
    return lines


def main(args) -> int:
    hits: Dict[str, Set[int]] = {}

    def trace(frame, event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PREFIX):
            return None
        seen = hits.setdefault(filename, set())
        seen.add(frame.f_lineno)

        def trace_lines(frame, event, _arg):
            seen.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    covered = total = 0
    modules = []
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        run = lines & hits.get(str(path), set())
        covered, total = covered + len(run), total + len(lines)
        modules.append((len(run) / len(lines) if lines else 1.0,
                        path.relative_to(SRC.parent), len(lines) - len(run)))
    print(f"repro line coverage: {covered} of {total} lines, "
          f"{100.0 * covered / total:.1f}%")
    for share, name, missed in sorted(modules)[:10]:
        print(f"  {100.0 * share:5.1f}%  {name}  ({missed} lines never run)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
