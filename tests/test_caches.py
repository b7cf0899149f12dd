"""poscert keeps one process-wide store, ``gegenbauer._TABLES``; no function memoizes its results.

A memoized function has a second code path, the cache hit, that no command takes more than once per
argument in a process, so only repeated calls in tests would reach it.
"""

import importlib
import inspect
import pkgutil

import poscert


def _functions(module):
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield from vars(obj).values()
        else:
            yield obj


def test_no_poscert_function_is_memoized():
    modules = [importlib.import_module(f"poscert.{m.name}") for m in pkgutil.iter_modules(poscert.__path__)]
    assert {m.__name__ for m in modules} >= {"poscert.delsarte", "poscert.gegenbauer", "poscert.lattice"}
    cached = [f"{m.__name__}.{getattr(f, '__name__', f)}"
              for m in [poscert, *modules] for f in _functions(m) if hasattr(f, "cache_info")]
    assert cached == []
