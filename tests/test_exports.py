"""Every name that spherecast or one of its modules lists in __all__
resolves, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import spherecast

MODULES = ["spherecast"] + sorted(
    f"spherecast.{m.name}" for m in pkgutil.iter_modules(spherecast.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
