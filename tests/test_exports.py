"""Every module's star-import works and its ``__all__`` names exist."""

import importlib

import pytest

MODULES = ["numerics", "kernels", "analytic", "features", "experiments", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_names(name):
    namespace = {}
    exec(f"from kerlip.{name} import *", namespace)
    module = importlib.import_module(f"kerlip.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"kerlip.{name}.__all__ lists missing {export!r}"
        assert export in namespace
