"""Deterministic seeded substreams.

Every randomized operation derives an independent generator from
(seed, scope...) so that work partitioned across strata/queries in parallel
reproduces the sequential output bit for bit. Scope parts are hashed with
SHA-256, so stream identity is stable across platforms and Python versions
(no reliance on hash()).
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, *scope: object) -> np.random.Generator:
    """Return a generator unique to (seed, scope) and independent of call order."""
    digest = hashlib.sha256("\x1f".join(str(part) for part in scope).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *words]))
