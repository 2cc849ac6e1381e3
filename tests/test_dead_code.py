"""Dead-code guard over the package's own source: every imported name is
used in its module, and every private module-level function, class or
constant is used where it is bound: read by its own module, imported from
it by another, or read by another through a name bound to its module.  A
deletion that leaves a helper or an import behind fails here, even when a
live helper elsewhere has the same name."""

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


def _own_reads(tree) -> set[str]:
    """Names the module reads unqualified, and the entries of `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _bound_reads(tree) -> set[tuple[str, str]]:
    """(module, name) for each name the module takes from a sibling module:
    imported from it (``from .m import name``), or read as an attribute of
    a name bound to it (``from . import m as alias``, then ``alias.name``)."""
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def _dead(trees) -> list[str]:
    """module.py:name of every private definition that is not used where
    it is bound; `trees` maps each module's name to its syntax tree."""
    bound = set().union(*(_bound_reads(tree) for tree in trees.values()))
    return [f"{module}.py:{name}" for module, tree in trees.items()
            for name in _private_definitions(tree)
            if name not in _own_reads(tree) and (module, name) not in bound]


def test_every_private_definition_is_referenced():
    dead = _dead({path.stem: _tree(path) for path in MODULES})
    assert not dead, f"private definitions no module uses: {dead}"


def test_the_guard_binds_each_private_name_to_its_module():
    """Two modules define `_step` and another reads a's through a's module:
    b's is dead until a module imports it, and a's once no module reads it
    through a, though the reader reads a `_step` of its own."""
    trees = {"a": ast.parse("def _step():\n    return 1\n"),
             "b": ast.parse("def _step():\n    return 2\n"
                            "def _kept():\n    return 3\n_KEPT = _kept()\n"),
             "c": ast.parse("from . import a as _a\nfrom .b import _KEPT\n"
                            "def run():\n    return _a._step() + _KEPT\n")}
    assert _dead(trees) == ["b.py:_step"]
    trees["d"] = ast.parse("from .b import _step\n")
    assert _dead(trees) == []
    trees["c"] = ast.parse("from . import a as _a\nfrom .b import _KEPT\n_step = _KEPT\n"
                           "def run():\n    return _step + _a.other\n")
    assert _dead(trees) == ["a.py:_step"]


def test_the_guard_sees_a_dead_helper_and_an_unused_import():
    tree = ast.parse("import os\nfrom .x import y\n_Z = 1\n"
                     "def _f():\n    return y\n")
    assert set(_imported(tree)) - _references(tree) == {"os"}
    assert [d for d in _private_definitions(tree) if d not in _references(tree)] == ["_Z", "_f"]
