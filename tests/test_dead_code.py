"""Dead-code guard over the package's own source: every imported name is
used in its module, and every private module-level function, class or
constant is referenced by some module of the package.  A deletion that
leaves a helper or an import behind fails here."""

import ast
from pathlib import Path

import pytest

import transmix

PACKAGE = Path(transmix.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree) -> set[str]:
    """Names the module reads: loaded names, attribute names and the
    entries of `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _imported(tree) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _private_definitions(tree) -> list[str]:
    """Module-level functions, classes and assigned names with one leading
    underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = sorted(set(_imported(tree)) - _references(tree))
    assert not unused, f"{path.name} imports {unused} but never uses them"


def test_every_private_definition_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*(_references(tree) for tree in trees.values()))
    dead = [f"{name}:{d}" for name, tree in trees.items()
            for d in _private_definitions(tree) if d not in used]
    assert not dead, f"private definitions no module references: {dead}"


def test_the_guard_sees_a_dead_helper_and_an_unused_import():
    tree = ast.parse("import os\nfrom .x import y\n_Z = 1\n"
                     "def _f():\n    return y\n")
    assert set(_imported(tree)) - _references(tree) == {"os"}
    assert [d for d in _private_definitions(tree) if d not in _references(tree)] == ["_Z", "_f"]
