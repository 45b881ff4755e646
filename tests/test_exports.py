"""Every name a longrate module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import longrate

MODULES = ["longrate"] + [
    f"longrate.{info.name}"
    for info in pkgutil.iter_modules(longrate.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
