"""Deterministic RNG streams derived from (root seed, stream name).

Every stochastic consumer in the package (init, masking, dropout, data
order, perturbations) pulls from its own named stream so that adding or
removing one consumer cannot shift the draws seen by another.  The name
is hashed with sha256, which keeps the derivation stable across runs,
platforms and process boundaries; Python's builtin hash() is salted per
process and must not be used here.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=1024)
def stream_key(name: str) -> int:
    """Stable 64-bit key for a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(root_seed: int, name: str) -> np.random.Generator:
    """Generator for the given stream, independent of creation order."""
    entropy = [int(root_seed) & _MASK64, stream_key(name)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with draws beyond two standard deviations redrawn."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)  # a view: a fresh draw is contiguous
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    # Redraw only the offending entries, in index order, and re-test only
    # those: the rest already lie within 2 std.  The loop terminates fast
    # since each redraw keeps ~95% of its draws.
    while bad.size:
        flat[bad] = rng.normal(0.0, std, size=bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0 * std]
    return out
