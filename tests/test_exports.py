"""The public surface: every exported name exists, and removed ones stay gone."""

import importlib
import pkgutil

import argyris

#: names the package once exported; each job is one call of what remains
REMOVED = (
    "Spline",
    "convert",
    "multiply_by_linear",
    "dual_functional",
    "edge_determinants",
    "transversal_vector",
    "rotate_uv",
)


def test_every_exported_name_resolves_and_removed_names_are_gone():
    modules = [importlib.import_module(f"argyris.{m.name}")
               for m in pkgutil.iter_modules(argyris.__path__)]
    assert len(modules) >= 9
    for module in modules:
        # a stale entry breaks ``from argyris.<module> import *``
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    assert not [name for name in REMOVED if hasattr(argyris, name)]
