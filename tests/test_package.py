"""The package namespace is exactly the union of its modules' public names."""

import importlib

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
