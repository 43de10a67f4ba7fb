"""Deterministic random streams.

All randomness in the package flows through PCG64 generators keyed by a user
seed plus small integer stream labels, via numpy's SeedSequence.  Identical
seeds therefore reproduce identical draws, and distinct streams (instance
generation, perturbations, starting points, probe directions) never share
state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]

# Stream labels.  Keep these stable: changing them changes every seeded draw.
STREAM_INSTANCE = 0
STREAM_PERTURB = 1
STREAM_START = 2
STREAM_PROBE = 3


def substream(seed: int, *keys: int) -> np.random.Generator:
    """A PCG64 generator keyed by ``(seed, *keys)``; a negative ``seed``
    raises :class:`ValueError`."""
    if int(seed) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    seq = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in keys))
    return np.random.Generator(np.random.PCG64(seq))
