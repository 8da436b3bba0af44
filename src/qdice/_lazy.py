"""Deferred module loading.

``solve``, ``bound-check`` and ``--version`` use only ``math`` and
integer arithmetic; importing numpy would be most of their cold-start time.
The modules that sample or evolve states bind numpy (and ``_seeding``, which
imports it) through ``lazy_import``, so its code runs on the first attribute
access (``np.zeros``, ...), not when qdice is imported.

The module turns plain only after its code has run, and the first access
runs it under a lock, so a thread making the first access while another
thread is loading waits for the load. (``importlib.util.LazyLoader`` before
Python 3.12 turns the module plain first and takes no lock: a second thread
then finds attributes missing.)
"""
from __future__ import annotations

import importlib.util
import sys
import threading
from types import ModuleType

_lock = threading.RLock()
#: names of the modules whose code is running; their own code reads them as it runs
_loading: set[str] = set()


class _LazyModule(ModuleType):
    """A module in ``sys.modules`` whose code has not run yet."""

    def __getattribute__(self, attr: str):
        with _lock:
            spec = ModuleType.__getattribute__(self, "__spec__")
            if type(self) is _LazyModule and spec.name not in _loading:
                _loading.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                    self.__class__ = ModuleType
                finally:
                    _loading.discard(spec.name)
        return ModuleType.__getattribute__(self, attr)


def lazy_import(name: str) -> ModuleType:
    """Module ``name``, executed on first attribute access.

    An already imported module is returned as it is. Otherwise the module
    is registered in ``sys.modules``, so a later ``import name`` anywhere
    returns the same object.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[name] = module
    return module
