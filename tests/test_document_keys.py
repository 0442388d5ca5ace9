"""Every key a scenario or suite reader accepts is set by some shipped document.

The input-side twin of `test_package_surface.py`: a field that no file under
`scenarios/` sets is a reader branch kept alive without traffic.  The keys
are read with `ast` from the literal key sets of the `_only` calls in `src/`,
which refuse every other key.
"""

import ast
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: accepted keys that no shipped document sets, each with its reason
UNSHIPPED = (
    ("policy", "the step policy section; ROADMAP items 5 and 6"),
    ("no_move_on_ambiguity", "the one step policy flag; ROADMAP items 5 and 6"),
    ("max_steps", "the step budget behind exit 3"),
    ("schedule", "Variant A's schedule; ROADMAP item 6"),
)


def accepted_keys():
    """The string elements of every set literal passed to `_only` in `src/`."""
    keys = set()
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_only":
                (literal,) = [arg for arg in node.args if isinstance(arg, ast.Set)]
                keys.update(ast.literal_eval(literal))
    return keys


def object_keys(doc):
    """Every key of every JSON object in `doc`."""
    if isinstance(doc, dict):
        yield from doc
        values = doc.values()
    else:
        values = doc if isinstance(doc, list) else ()
    for value in values:
        yield from object_keys(value)


def test_every_accepted_key_is_set_by_a_shipped_document():
    shipped = {key for path in (REPO / "scenarios").glob("*.json")
               for key in object_keys(json.loads(path.read_text()))}
    accepted = accepted_keys()
    unshipped = {key for key, _ in UNSHIPPED}
    assert "entries" in accepted and "no_move_on_ambiguity" in accepted
    assert unshipped <= accepted - shipped
    assert sorted(accepted - shipped - unshipped) == []
