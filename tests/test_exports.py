"""Every name a ``haj`` module exports in ``__all__`` must exist.

A deletion that leaves a stale export breaks ``from haj.<module> import *``
for a user; this catches it here instead.
"""

import importlib
import pkgutil

import haj


def test_all_exports_resolve():
    missing = []
    checked = 0
    for info in pkgutil.iter_modules(haj.__path__):
        module = importlib.import_module(f"haj.{info.name}")
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                missing.append(f"haj.{info.name}.{name}")
    assert checked > 0
    assert missing == []
