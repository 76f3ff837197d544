"""Package-wide checks of the modules' public names."""

import importlib
import pkgutil

import anisoline


def test_every_exported_name_exists():
    # a stale `__all__` entry breaks `from anisoline.<module> import *`
    names = [info.name for info in pkgutil.iter_modules(anisoline.__path__)]
    assert "tmesh" in names and "refine" in names
    missing = []
    for name in names:
        module = importlib.import_module(f"anisoline.{name}")
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []
