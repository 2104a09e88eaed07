"""Export guard: every name a module exports resolves, and no export list repeats one."""

import importlib
import pkgutil

import pytest

import proxyot

MODULES = ["proxyot", *sorted(f"proxyot.{m.name}" for m in pkgutil.iter_modules(proxyot.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
