"""Every name the package exports or defines is read by the program, not only by tests.

An exported name, or a function, method or class defined in `src/`, with no
reader in `src/`, `scripts/` or `bench/` is surface kept for the tests alone;
its oracle belongs in `tests/reference.py`.
"""

import ast
import inspect
from pathlib import Path

import borda_dynamics as bd

REPO = Path(__file__).resolve().parent.parent

#: exported or defined names the program need not read, each with its reason
UNREAD = (
    ("step_sync", "the paper's Variant S map, one synchronous step"),
    ("step_async", "the paper's Variant A map, one single-node step"),
    ("is_fixed_point", "the paper's equilibrium test"),
    ("verify_minus_one_mode", "criterion 09's -1 eigenmode identity"),
    ("perturb_weights", "a robustness trial's perturbed network, whose integer rows the trial runs"),
)


def read_names():
    """Every name a Name, Attribute or import alias in `src/`, `scripts/` or
    `bench/` reads, package `__init__.py` files aside."""
    names = set()
    for top in ("src", "scripts", "bench"):
        for path in (REPO / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_exported_name_has_a_reader_in_the_program():
    exported = {name for name in bd.__all__ if not inspect.ismodule(getattr(bd, name))}
    unread = {name for name, _ in UNREAD}
    assert unread <= exported
    assert sorted(exported - read_names() - unread) == []


def defined_names():
    """Every function, method and class `src/` defines, dunder methods aside
    (the language calls them), with the file and line of each definition."""
    defined = {}
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, []).append(f"{path.relative_to(REPO)}:{node.lineno}")
    return defined


def test_every_definition_in_src_has_a_reader_in_the_program():
    defined = defined_names()
    unread = {name for name, _ in UNREAD}
    assert unread <= defined.keys()
    kept = read_names() | unread
    assert sorted((name, where) for name, where in defined.items() if name not in kept) == []
