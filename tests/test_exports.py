import importlib
import pkgutil

import pytest

import lsufdr

MODULES = ["lsufdr"] + [f"lsufdr.{m.name}"
                        for m in pkgutil.iter_modules(lsufdr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deleted function left in __all__ breaks `from ... import *`
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
