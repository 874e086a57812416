"""Named substreams derived from one run seed.

Every source of randomness in the engine (parameter init, epoch shuffling,
synthetic data, dataset splitting) draws from its own substream so that the
streams never interleave: adding an epoch of shuffling can never change what
the initializer produced, and vice versa.
"""

from __future__ import annotations

import numpy as np

STREAMS = {"init": 0, "shuffle": 1, "synth": 2, "split": 3}


def check_seed(seed):
    """Refuse a seed that is not an int >= 0 (a bool is not one); return it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")
    return seed


def generator(seed) -> np.random.Generator:
    """``seed`` itself if it is a ``np.random.Generator``, else a new one from ``seed``, which must pass ``check_seed``."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(check_seed(seed))


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the named substream of ``seed``, an int >= 0 (not a bool)."""
    if name not in STREAMS:
        raise ValueError(f"unknown rng stream {name!r}; known: {sorted(STREAMS)}")
    ss = np.random.SeedSequence(entropy=int(check_seed(seed)), spawn_key=(STREAMS[name],))
    return np.random.default_rng(ss)
