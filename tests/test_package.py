"""The package namespace is exactly the union of its modules' public names,
every module uses what it imports, and the package uses every private name
it defines."""

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


def test_src_references_every_private_name_it_defines():
    # a private helper that only tests reach belongs in tests/, and one that
    # nothing reaches belongs nowhere
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(glm.__file__).parent.glob("*.py"))}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                heads = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for head in heads for t in ast.walk(head)
                           if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((t, module) for t in targets
                           if t.startswith("_") and not t.startswith("__"))
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    assert len(defined) > 50  # the walk above finds them
    unused = {f"{defined[name]}:{name}" for name in set(defined) - referenced}
    assert not unused, f"src/ never references {sorted(unused)}"
