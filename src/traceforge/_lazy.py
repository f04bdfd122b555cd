"""numpy, imported the first time one of its attributes is read.

The array modules (packedpoly, nullspace, relfinder) use numpy only inside
functions, so they share the handle `np` from here instead of importing
numpy when the package is imported: a command that never builds an array,
such as `mult` or a warm `relations`, never pays for the import.

The first attribute read imports numpy under a lock and copies its namespace
into the handle, then turns the handle into a plain module, so later reads
cost what they cost on numpy itself.  importlib.util.LazyLoader is not used:
before Python 3.12 it turns its module plain before numpy has finished
executing, so a second thread could read a half-loaded numpy; here every
thread that arrives during the first load waits for it to complete.
"""

from __future__ import annotations

import importlib
import threading
import types

_LOCK = threading.Lock()


class _LazyModule(types.ModuleType):
    # called only for names the handle does not hold yet, i.e. before the load
    def __getattr__(self, name: str):
        with _LOCK:
            if type(self) is _LazyModule:
                self.__dict__.update(importlib.import_module(self.__name__).__dict__)
                self.__class__ = types.ModuleType
        return getattr(self, name)


np = _LazyModule("numpy")
