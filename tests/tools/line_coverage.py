"""The ``repro`` line coverage of the tier-1 suite or of the entry points,
stdlib only.

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
coverage.py's statement count.

With ``--entry-points`` it runs what the product is instead of pytest,
under the same tracer and in-process::

    PYTHONPATH=src python tests/tools/line_coverage.py --entry-points

that is every ``repro`` command of the CI workflow's smoke steps
(``.github/workflows/ci.yml``, in a temporary directory; a sweep's
``--workers N`` runs with one worker, so its scenarios run in this traced
process), the seven ``examples/*.py`` (in a temporary directory, stdout
discarded) and each ``bench/workloads.py`` workload at ``smoke`` scale
through a recorder that keeps only failed checks.  After the coverage
summary it checks the ``src/repro`` functions that no entry point entered
against the committed verdicts in ``entry_point_verdicts.txt`` (one
``module:qualname-pattern  reason`` per line, ``fnmatch`` patterns): it
lists every unentered function without a verdict, largest first, and
every verdict that matches no unentered function, and exits 1 if either
list is non-empty.  Verdicts name functions by ``co_qualname``, so this
mode needs Python 3.11 or later.

Code run in other processes is not traced: the fresh interpreters of
``tests/test_imports.py``.  The figures are therefore lower bounds of
what pytest-cov reports.  pytest does not collect this file (its name
does not start with ``test_``).
"""

from __future__ import annotations

import contextlib
import fnmatch
import io
import os
import re
import runpy
import shlex
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
PREFIX = str(SRC) + "/"
#: Why each function that no entry point enters stays.
VERDICTS = Path(__file__).with_name("entry_point_verdicts.txt")

#: A ``repro`` invocation on a line of a workflow ``run:`` step.
_CLI_LINE = re.compile(r"^\s*(?:run:\s*)?(?:python -m )?repro(\s.*)?$")


def _walk(code) -> Iterator:
    """A code object and every code object nested in it."""
    pending = [code]
    while pending:
        code = pending.pop()
        yield code
        pending.extend(const for const in code.co_consts
                       if hasattr(const, "co_lines"))


def _compiled(path: Path):
    return compile(path.read_text(), str(path), "exec")


def _lines(code) -> Set[int]:
    """The first line of every instruction in ``code`` and its nested code."""
    return {line for each in _walk(code)
            for _, _, line in each.co_lines() if line}


def executable_lines(path: Path) -> Set[int]:
    """The first line of every instruction run in the module's code."""
    return _lines(_compiled(path))


#: Where a code object starts: (file, first line, name).
CodeKey = Tuple[str, int, str]


@contextlib.contextmanager
def traced() -> Iterator[Tuple[Dict[str, Set[int]], Set[CodeKey]]]:
    """Trace ``src/repro``: yields the lines run per file and the
    (file, first line, name) of every code object entered."""
    hits: Dict[str, Set[int]] = {}
    entered: Set[CodeKey] = set()

    def trace(frame, event, _arg):
        code = frame.f_code
        filename = code.co_filename
        if not filename.startswith(PREFIX):
            return None
        entered.add((filename, code.co_firstlineno, code.co_name))
        seen = hits.setdefault(filename, set())
        seen.add(frame.f_lineno)

        def trace_lines(frame, event, _arg):
            seen.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        yield hits, entered
    finally:
        sys.settrace(None)
        threading.settrace(None)


# ---------------------------------------------------------------------------
# the entry points
# ---------------------------------------------------------------------------
def ci_commands() -> List[List[str]]:
    """The argument lists of every ``repro`` command in the CI workflow,
    each ``--workers N`` set to one worker."""
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    commands = []
    for line in workflow.read_text().splitlines():
        match = _CLI_LINE.match(line)
        if match:
            argv = shlex.split(match.group(1) or "")
            if "--workers" in argv:
                argv[argv.index("--workers") + 1] = "1"
            commands.append(argv)
    return commands


class _Recorder:
    """What a bench workload reports into; keeps only failed checks."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def attach(self, sim) -> None:
        pass

    def setup(self, seconds: float) -> None:
        pass

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def count(self, name: str, value: float) -> None:
        pass

    def timing(self, name: str, seconds: float) -> None:
        pass

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return bool(ok)


def run_entry_points() -> int:
    """Run the CLI smokes, the examples and the smoke-scale bench
    workloads; returns the number that failed."""
    from repro.cli import main as repro_main

    sys.path.insert(0, str(ROOT))
    from bench.workloads import WORKLOADS

    failed = 0
    home, argv0 = os.getcwd(), sys.argv
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv in ci_commands():
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        status = repro_main(argv)
                except SystemExit as exit_:  # ``--help``
                    status = exit_.code
                print(f"repro {' '.join(argv)}: exit {status}")
                failed += bool(status)
            for example in sorted((ROOT / "examples").glob("*.py")):
                sys.argv = [str(example)]  # run with no arguments
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        runpy.run_path(str(example), run_name="__main__")
                    status = 0
                except Exception as error:  # report, go on
                    traceback.print_exc()
                    status = repr(error)
                print(f"examples/{example.name}: {status or 'ok'}")
                failed += bool(status)
        finally:
            os.chdir(home)
            sys.argv = argv0
    for name, workload_cls in WORKLOADS.items():
        recorder, workload = _Recorder(), workload_cls(seed=1, scale="smoke")
        if hasattr(workload, "prepare"):
            workload.prepare(recorder)
        for kind in workload.kinds:
            getattr(workload, kind)(recorder)
        print(f"bench {name} (smoke): "
              + ("; ".join(recorder.failures) or "ok"))
        failed += bool(recorder.failures)
    return failed


def module_name(path: Path) -> str:
    """The dotted module name of a file under ``src/repro``."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def never_entered(entered: Set[CodeKey]) -> List[Tuple[int, str, str, str]]:
    """(lines, where, module, qualified name) of every named function in
    ``src/repro`` that was never called, largest first."""
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        for code in _walk(_compiled(path)):
            if code.co_name.startswith("<") or \
                    (str(path), code.co_firstlineno, code.co_name) in entered:
                continue
            where = f"{path.relative_to(SRC.parent)}:{code.co_firstlineno}"
            missed.append((len(_lines(code)), where, module_name(path),
                           getattr(code, "co_qualname", code.co_name)))
    return sorted(missed, key=lambda row: (-row[0], row[1]))


#: One verdict: (module pattern, qualified-name pattern, reason).
Verdict = Tuple[str, str, str]


def read_verdicts(path: Path = VERDICTS) -> List[Verdict]:
    """The verdicts of ``path``: a ``module:qualname-pattern  reason`` line
    each; blank lines and ``#`` comments are skipped."""
    verdicts = []
    for line in path.read_text().splitlines():
        target, _, reason = line.strip().partition(" ")
        if not target or target.startswith("#"):
            continue
        module, _, qualname = target.partition(":")
        verdicts.append((module, qualname, reason.strip()))
    return verdicts


def judge(missed, verdicts: List[Verdict]):
    """The unentered functions no verdict matches, and the verdicts that
    match no unentered function."""
    used: Set[int] = set()
    unjudged = []
    for row in missed:
        hits = {index for index, (module, qualname, _) in enumerate(verdicts)
                if fnmatch.fnmatchcase(row[2], module)
                and fnmatch.fnmatchcase(row[3], qualname)}
        used |= hits
        if not hits:
            unjudged.append(row)
    stale = [verdict for index, verdict in enumerate(verdicts)
             if index not in used]
    return unjudged, stale


def main(args) -> int:
    entry_points = "--entry-points" in args
    with traced() as (hits, entered):
        if entry_points:
            status = run_entry_points()
        else:
            import pytest

            status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
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
    if entry_points:
        missed = never_entered(entered)
        unjudged, stale = judge(missed, read_verdicts())
        print(f"{len(missed)} functions no entry point entered "
              f"({sum(row[0] for row in missed)} lines); "
              f"{len(unjudged)} without a verdict:")
        for lines, where, _module, name in unjudged:
            print(f"  {lines:4d}  {where}  {name}")
        print(f"{len(stale)} verdicts match no unentered function:")
        for module, qualname, reason in stale:
            print(f"  {module}:{qualname}  {reason}")
        status = status or bool(unjudged or stale)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
