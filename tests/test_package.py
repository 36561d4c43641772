"""The package namespace is exactly the union of its modules' public names,
and every module uses what it imports."""

import ast
import importlib
from pathlib import Path

import graphlmr as glm

MODULES = ("graph", "generators", "spectral", "localsets", "sampling",
           "reconstruction", "noise", "experiments")


def test_package_all_joins_module_lists():
    modules = [importlib.import_module(f"graphlmr.{m}") for m in MODULES]
    expected = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert glm.__all__ == expected
    assert len(set(glm.__all__)) == len(glm.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(glm, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_modules_use_every_name_they_import():
    # __init__ imports names to re-export them, not to use them
    for path in sorted(Path(glm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, f"{path.name} imports unused {imported - used}"
