"""Modules loaded no earlier and no wider than a command needs.

A command's fixed cost is mostly start-up: every module it imports is read
and, where no bytecode cache is written, compiled on every run. So
``releval/__init__.py`` registers each submodule with ``load`` instead of
importing it. Each is in ``sys.modules`` and bound on the package from the
start, so ``from . import estimation`` and code that walks ``sys.modules``
see it, but its code runs only when something first reads one of its
attributes. ``cli`` binds the modules that only some commands use and calls
them qualified, so ``--version``, ``metric`` and a rejected ``evaluate``
never run estimation, BH, the power and sampling code, alignment or the
simulator; ``evaluate`` runs no alignment (unless the dataset carries
reference labels) or simulator, ``align`` no estimation, sampling or
simulator, and ``simulate`` no estimation or alignment.

numpy is registered the same way: ``np`` is bound at import time and numpy's
own code runs when a command first reads ``np.<name>``. ``metric``, ``mde``,
``design``, a rejected ``evaluate`` and ``--version`` never call it.

The t test needs only scipy's compiled ``stdtr`` and ``stdtrit``, from
``scipy.special._ufuncs``. ``t_ufuncs`` loads that one extension module
without running ``scipy.special``'s package init, which pulls in scipy's
array-API layer, ``numpy.f2py`` and ``numpy.testing`` and costs 0.24–0.40 s
on a 2-vCPU box with numpy already loaded.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
import types


def load(name: str):
    """The module ``name``: the imported one if any, else one that imports itself on first use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = load("numpy")


def _ufuncs_without_package_init():
    """``scipy.special._ufuncs``, imported under a bare stand-in for its package.

    The stand-in has the real package's ``__path__``, so the extension and
    what it imports load from scipy as usual. It is removed afterwards, so a
    later ``import scipy.special`` runs the real init, which reuses the loaded
    extension: its ``stdtr`` is the same object.
    """
    import scipy  # the parent package; its own init is cheap

    stub = types.ModuleType("scipy.special")
    stub.__path__ = list(importlib.util.find_spec("scipy.special").submodule_search_locations)
    sys.modules["scipy.special"] = stub
    try:
        from scipy.special import _ufuncs
    finally:
        del sys.modules["scipy.special"]
        # vars(), not hasattr(): scipy's module __getattr__ would import the package
        vars(scipy).pop("special", None)
    return _ufuncs


@functools.cache
def t_ufuncs():
    """scipy's ``(stdtr, stdtrit)``, resolved once per process.

    Taken from ``scipy.special`` if it is already imported; else from its
    compiled ``_ufuncs`` alone; else, should a scipy release break that path,
    from ``scipy.special`` after all.
    """
    special = sys.modules.get("scipy.special")
    if special is None:
        try:
            special = _ufuncs_without_package_init()
        except ImportError:
            import scipy.special as special
    return special.stdtr, special.stdtrit
