import importlib
import pkgutil

import genocchi

MODULES = ["genocchi"] + [f"genocchi.{m.name}" for m in pkgutil.iter_modules(genocchi.__path__)]


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert len(MODULES) > 5
    assert not missing, missing
