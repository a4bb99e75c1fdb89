"""Deterministic seeded substreams.

Every randomized operation derives an independent generator from
(seed, scope...), so its draws do not depend on what else ran before it.
The simulator keys its streams by (seed, purpose, stratum) and draws each
stratum as one row-major block, so runs are prefix-stable per stratum.
Scope parts are hashed with SHA-256, so stream identity is stable across
platforms and Python versions (no reliance on hash()). A seed is a 32-bit
unsigned integer: one of another type (a bool included) is BadSpec, and one
outside the range OutOfDomain, never reduced into range.
"""

from __future__ import annotations

import hashlib

from ._lazy import np
from .core import check_integer
from .errors import OutOfDomain


def check_seed(seed: int) -> None:
    """A seed is an int, not a bool (else BadSpec), in [0, 2**32) (else OutOfDomain)."""
    if not 0 <= check_integer(seed, "seed") < 1 << 32:
        raise OutOfDomain(f"seed must be in [0, 2**32), got {seed}")


def substream(seed: int, *scope: object) -> np.random.Generator:
    """Return a generator unique to (seed, scope) and independent of call order."""
    check_seed(seed)
    digest = hashlib.sha256("\x1f".join(str(part) for part in scope).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))
