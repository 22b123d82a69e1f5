"""Every module in ``src/repro`` fits the 600-line budget, or says why not.

A module longer than the budget passes only if its docstring gives the
reason in a sentence containing "over 600 lines because".  Lines are
counted as ``wc -l`` counts them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BUDGET = 600
REASON = re.compile(r"over 600 lines because", re.IGNORECASE)


def over_budget(text: str) -> bool:
    """A module's source is over the budget without a stated reason."""
    if text.count("\n") <= BUDGET:
        return False
    return not REASON.search(ast.get_docstring(ast.parse(text)) or "")


def test_every_module_fits_the_budget_or_states_why():
    over = [f"{path.relative_to(SRC.parent.parent)}: "
            f"{path.read_text().count(chr(10))} lines"
            for path in sorted(SRC.rglob("*.py"))
            if over_budget(path.read_text())]
    assert not over, ("modules over the 600-line budget without a reason "
                      "in their docstring:\n" + "\n".join(over))


def test_a_stated_reason_admits_a_long_module():
    body = "x = 1\n" * BUDGET
    assert over_budget('"""A module."""\n' + body)
    assert not over_budget(
        '"""A module, over 600 lines because it must be."""\n' + body)
    assert not over_budget('"""A module."""\n' + "x = 1\n" * (BUDGET - 1))
