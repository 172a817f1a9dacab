"""The library keeps only what its own code reaches, and imports only numpy.

A public module-level function or class, or a public method, that no code
in src/fmlab references outside its own definition is reached only from
tests: it belongs in tests/oracles.py, or nowhere.  A reference is any
name, attribute or import of the same identifier, so the check is by name.

The library's one dependency is numpy: every other import is the standard
library or fmlab itself (scipy, say, is for tests only).
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fmlab"

ALLOWED = set()  # "module.name" entries a run does not reach but that stay


def _identifiers(node):
    """(node, identifier) for every name, attribute and imported name under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub, sub.attr
        elif isinstance(sub, ast.alias):
            yield sub, sub.name


def _public_definitions(module, tree):
    """(qualified name, identifier, definition node) of the public surface."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def unreferenced():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(ref, ident) for tree in trees.values() for ref, ident in _identifiers(tree)]
    out = []
    for module, tree in trees.items():
        for qualname, ident, node in _public_definitions(module, tree):
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(name == ident and id(ref) not in inside for ref, name in uses):
                out.append(qualname)
    return out


def test_every_public_name_is_reached_from_the_library():
    assert SRC.is_dir()
    assert sorted(set(unreferenced()) - ALLOWED) == []


def test_the_library_imports_only_numpy_the_standard_library_and_itself():
    allowed = {"numpy", "fmlab"} | set(sys.stdlib_module_names)
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import is fmlab itself
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []
