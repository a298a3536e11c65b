"""Clipped relative distances between sequence positions.

The distance from query position i to key position j is i - j shifted
by the window half-width k and clipped into [0, 2k - 1]:

    delta(i, j) = 0           if i - j <= -k
                  2k - 1      if i - j >=  k
                  i - j + k   otherwise

Row 0 of a 2k-row embedding table therefore means "j is at least k
ahead of i" and row 2k - 1 means "j is at least k behind i".  The
diagonal always lands on row k.  Note the asymmetry: delta(i, j) and
delta(j, i) are distinct lookups, and the content-to-position and
position-to-content attention terms use opposite orientations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError


def _check_k(k: int) -> None:
    if k < 1:
        raise ConfigError(f"relative window half-width k must be >= 1, got {k}")


def delta(i: int, j: int, k: int) -> int:
    """Clipped relative distance from position i to position j."""
    _check_k(k)
    d = i - j
    if d <= -k:
        return 0
    if d >= k:
        return 2 * k - 1
    return d + k


@dataclass(frozen=True, eq=False)
class DeltaMatrix:
    """All pairwise clipped distances for an n-token sequence."""

    n: int
    k: int
    values: np.ndarray  # shape (n, n), int64, read-only
    # Read-only gather offsets cut from values for each query block that
    # attention scores blockwise, keyed by the block and filled on its
    # first use, so they live and die with this cache entry.
    bands: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.values.setflags(write=False)


@lru_cache(maxsize=64)
def build_delta_matrix(n: int, k: int) -> DeltaMatrix:
    """DeltaMatrix with values[i, j] = delta(i, j, k).  Cached by (n, k)."""
    _check_k(k)
    if n < 1:
        raise ConfigError(f"sequence length must be >= 1, got {n}")
    idx = np.arange(n, dtype=np.int64)
    diff = idx[:, None] - idx[None, :]
    vals = np.clip(diff + k, 0, 2 * k - 1)
    return DeltaMatrix(n=n, k=k, values=vals)


def max_reach(k: int, layers: int) -> int:
    """Longest dependency span expressible by stacking relative windows.

    A single layer connects tokens up to 2(k - 1) apart (the clip bins
    at each end cover distance k - 1 before saturating in both
    directions around an intermediate token).  Depth multiplies the
    span: reach = 2 (k - 1) layers.
    """
    _check_k(k)
    if layers < 1:
        raise ConfigError(f"layer count must be >= 1, got {layers}")
    return 2 * (k - 1) * layers
