"""The README's Layout table names call forms that the code must have."""

import inspect
import re
from pathlib import Path

from dpgcn.model import backward, evaluate, forward, masked_cross_entropy
from dpgcn.rng import ReadAheadNormals

README = Path(__file__).resolve().parent.parent / "README.md"
CALLABLES = (forward, evaluate, backward, masked_cross_entropy, ReadAheadNormals)


def layout_table() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Layout", 1)[1].split("\n## ", 1)[0]


def call_form(fn) -> str:
    """fn's parameter names as the README writes them: a bare ``*`` before
    the keyword-only ones, with no defaults or annotations."""
    names, star = [], False
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and not star:
            names.append("*")
            star = True
        names.append(p.name)
    return f"{fn.__name__}({', '.join(names)})"


def drift(table: str) -> list[str]:
    """Each backticked call form of CALLABLES in the table that differs
    from its signature, and the name of each that the table never writes."""
    found = []
    for fn in CALLABLES:
        forms = re.findall(rf"`({fn.__name__}\([^`]*\))`", table)
        if not forms:
            found.append(fn.__name__)
        found += [f for f in forms if f != call_form(fn)]
    return found


def test_readme_call_forms_match_the_signatures():
    assert drift(layout_table()) == []


def test_readme_drift_check_sees_a_removed_keyword():
    table = layout_table()
    stale = table.replace("`forward(params, adj, *, ax, dropout, rng, worker)`",
                          "`forward(params, adj, *, ax, dropout, training, rng, worker)`")
    assert stale != table
    assert drift(stale) == ["forward(params, adj, *, ax, dropout, training, rng, worker)"]
