"""Deterministic substream derivation for reproducible parallel runs.

Every unit of work (a chunk of bits inside a session, a grid point of a
sweep, a perturbation batch) owns a generator derived from the master seed
and a structural key, never from its execution order.  Runs are therefore
bit-identical for a given master seed regardless of worker count.
"""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Generator for the work unit identified by ``key`` under ``master_seed``."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(seq))


def value_key(value: float) -> int:
    """Stable integer key for a float grid value (its IEEE-754 bit pattern).

    Keying substreams on the value itself rather than on its grid position
    lets any subset of a sweep's values reproduce the full run exactly.
    """
    return int(np.float64(value).view(np.uint64))
