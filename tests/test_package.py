"""The package namespace: each module's ``__all__`` is its one export list."""

import ast
import importlib
from pathlib import Path

import casimirdiff as cd
from casimirdiff import constants, experiment, lifshitz, materials

MODULES = (constants, experiment, lifshitz, materials)


def test_package_exports_each_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(cd.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(cd, name) is obj
            # a class or function is exported by the module that defines it
            assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_package_init_names_no_public_name():
    tree = ast.parse(Path(cd.__file__).read_text(encoding="utf-8"))
    written = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            written.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            written.add(node.value)
        elif isinstance(node, ast.ImportFrom):
            written.update(alias.name for alias in node.names)
    assert not written & set(cd.__all__)


def test_every_module_level_name_is_exported_or_read():
    src = Path(cd.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for path, tree in trees.items():
        name = "casimirdiff" if path.stem == "__init__" else f"casimirdiff.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{n}" for n in defined
                     if not (n.startswith("__") and n.endswith("__"))
                     and n not in exported and n not in read]
    assert not dead
