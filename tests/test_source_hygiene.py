"""Source checks that read the package's syntax tree, not its behaviour."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ratmap").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of func's body, not descending into nested functions or classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(line, function, name) for each non-underscore name a function assigns
    and neither it nor a function nested in it ever reads.  An augmented
    assignment reads its target; global and nonlocal names are not locals."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        outer = set()
        stores = {}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        found.extend((line, func.name, name) for name, line in stores.items()
                     if not name.startswith("_") and name not in read | outer)
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_assigns_a_local_it_never_reads(path):
    assert unread_locals(ast.parse(path.read_text(), str(path))) == []


def test_the_check_finds_an_unread_local():
    tree = ast.parse(
        "def f(xs):\n"
        "    kept = [x for x in xs]\n"
        "    dropped = len(xs)\n"
        "    total = 0\n"
        "    total += 1\n"
        "    def g():\n"
        "        nonlocal seen\n"
        "        seen = 1\n"
        "        inner = 2\n"
        "    seen = 0\n"
        "    def h():\n"
        "        return seen\n"
        "    return kept, total, g, h\n"
    )
    assert unread_locals(tree) == [(3, "f", "dropped"), (9, "g", "inner")]
