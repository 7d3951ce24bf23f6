"""The package namespace: each module's ``__all__`` is its one export list."""

import ast
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
