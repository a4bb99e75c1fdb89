"""numpy, loaded on first attribute access.

``metric``, ``mde``, a rejected ``evaluate`` and ``--version`` never call
numpy, and importing it is a large share of a short command's start. ``np``
is bound at import time and numpy's own code runs when a command first reads
``np.<name>``.
"""

from __future__ import annotations

import importlib.util
import sys


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
