"""Every module-level name in the package has a caller.

A module-level function, class or assigned name in src/isoshape/ must be
referenced somewhere in src/ outside its own definition: as a name, as
an attribute, or by an import (the package __init__ re-exports the
public API).  Dunder names are exempt.  A name that a module of the
package other than __init__ imports at module level must be used in that
module; __future__ imports are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "isoshape"


def _definitions(tree):
    """(name, defining node) for each module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def _references(node):
    """Identifiers used as names, attributes or imports anywhere in node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
    return out


def test_every_module_level_name_is_referenced():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    unreferenced = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - _references(node)[name] <= 0:
                unreferenced.append(f"{path.stem}.{name}")
    assert unreferenced == [], f"module-level names without a caller: {unreferenced}"


def _imported(tree):
    """(bound name, import node) for each module-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = Counter(sub.id for sub in ast.walk(tree)
                       if isinstance(sub, ast.Name))
        for name, _ in _imported(tree):
            if used[name] == 0:
                unused.append(f"{path.stem}: {name}")
    assert unused == [], f"imported but never used: {unused}"
