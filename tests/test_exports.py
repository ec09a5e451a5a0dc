"""Every public re-export resolves.

Imports each ``repro`` package and subpackage and looks up every name in
its ``__all__``, so deleting a module or definition without dropping its
re-export fails here rather than at a user's import.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


PACKAGES = _packages()


def test_walk_finds_the_subpackages():
    assert {"repro.core", "repro.data", "repro.eval", "repro.nn",
            "repro.obs", "repro.runtime.gateway"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
