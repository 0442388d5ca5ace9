"""Every name the package exports is read by the program, not only by tests.

An exported name with no reader in `src/`, `scripts/` or `bench/` is surface
kept for the tests alone; its oracle belongs in `tests/reference.py`.
"""

import ast
import inspect
from pathlib import Path

import borda_dynamics as bd

REPO = Path(__file__).resolve().parent.parent

#: exported names the program need not read, each with its reason
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
