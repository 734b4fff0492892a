"""Deterministic seed derivation for parallel Monte-Carlo runs.

Every simulation consumes a single integer seed and builds its own
generator from it, so a batch of runs gives bit-identical results no
matter how the runs are scheduled. Per-point seeds are derived from a
base seed with a SplitMix64 step: a bijective 64-bit avalanche, so two
distinct grid indices can never collide under the same base seed.
"""

from __future__ import annotations

import numpy as np

from .validation import check_seed

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(base_seed: int, index: int) -> int:
    """Derive the seed for grid point `index` from `base_seed`.

    Returns the (index+1)-th output of a SplitMix64 stream whose state
    starts at `base_seed`. Injective in `index` for a fixed base.
    """
    check_seed("base_seed", base_seed)
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    z = (int(base_seed) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def make_rng(seed: int) -> np.random.Generator:
    """Generator whose stream depends only on `seed` (PCG64)."""
    check_seed("seed", seed)
    return np.random.default_rng(seed)
