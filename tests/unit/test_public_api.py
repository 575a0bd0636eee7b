"""Every name a ``repro`` module exports in ``__all__`` must resolve."""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, missing
