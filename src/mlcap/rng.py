"""Named substreams derived from one run seed.

Every source of randomness in the engine (parameter init, epoch shuffling,
synthetic data, dataset splitting) draws from its own substream so that the
streams never interleave: adding an epoch of shuffling can never change what
the initializer produced, and vice versa.
"""

from __future__ import annotations

import numpy as np

STREAMS = {"init": 0, "shuffle": 1, "synth": 2, "split": 3}


def check_seed(seed) -> None:
    """Refuse a seed that is not an int >= 0; a bool is not one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed!r}")


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the named substream of ``seed``, an int >= 0 (not a bool)."""
    if name not in STREAMS:
        raise ValueError(f"unknown rng stream {name!r}; known: {sorted(STREAMS)}")
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAMS[name],))
    return np.random.default_rng(ss)
