"""Deterministic per-component random number streams.

Every component that needs randomness (network loss injection, application
workload generators, placement decisions) asks the registry for a named
stream.  Streams are derived from the master seed and the stream name, so
adding a new consumer of randomness never perturbs the sequences seen by
existing consumers — a property that keeps regression tests stable.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Registry of named, independently seeded ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self._master_seed, name))
            self._streams[name] = rng
        return rng

    def reset(self) -> None:
        """Re-seed every existing stream back to its initial state."""
        for name in list(self._streams):
            self._streams[name] = random.Random(derive_seed(self._master_seed, name))
