"""Every key a scenario or suite reader accepts is set by some shipped
document, and no shipped document restates a reader's default.

The input-side twin of `test_package_surface.py`: a field that no file under
`scenarios/` sets is a reader branch kept alive without traffic, and a field
set to its default states a fact twice.  The keys are read with `ast` from
the literal key sets of the `_only` calls in `src/`, which refuse every other
key, and the defaults from the literal defaults of its `_field` calls.
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
)


def calls(name):
    """Every call of the function `name` in `src/`."""
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
                yield node


def accepted_keys():
    """The string elements of every set literal passed to `_only` in `src/`."""
    keys = set()
    for node in calls("_only"):
        (literal,) = [arg for arg in node.args if isinstance(arg, ast.Set)]
        keys.update(ast.literal_eval(literal))
    return keys


def literal_defaults():
    """`(key, repr(default))` of every `_field(doc, key, path, kind, default)`
    call in `src/` whose key and default are literals."""
    defaults = set()
    for node in calls("_field"):
        if len(node.args) == 5 and isinstance(node.args[1], ast.Constant):
            try:
                defaults.add((node.args[1].value, repr(ast.literal_eval(node.args[4]))))
            except ValueError:  # a name or an f-string, not a literal
                pass
    return defaults


def object_items(doc):
    """Every key and value of every JSON object in `doc`."""
    if isinstance(doc, dict):
        yield from doc.items()
        values = doc.values()
    else:
        values = doc if isinstance(doc, list) else ()
    for value in values:
        yield from object_items(value)


def shipped_items():
    """`(file name, key, value)` of every object field in the shipped documents."""
    for path in sorted((REPO / "scenarios").glob("*.json")):
        for key, value in object_items(json.loads(path.read_text())):
            yield path.name, key, value


def test_every_accepted_key_is_set_by_a_shipped_document():
    shipped = {key for _, key, _ in shipped_items()}
    accepted = accepted_keys()
    unshipped = {key for key, _ in UNSHIPPED}
    assert "entries" in accepted and "no_move_on_ambiguity" in accepted
    assert unshipped <= accepted - shipped
    assert sorted(accepted - shipped - unshipped) == []


def test_no_shipped_document_sets_a_key_to_its_default():
    defaults = literal_defaults()
    assert ("expect", "'pass'") in defaults and ("args", "{}") in defaults
    restated = [(name, key, value) for name, key, value in shipped_items() if (key, repr(value)) in defaults]
    assert restated == []
