"""Reproducible random streams for parallel replica simulation.

Replicas are simulated in blocks of ``BLOCK`` = 1024: block ``b`` holds
replicas ``[b*BLOCK, min((b+1)*BLOCK, n))`` and draws all its randomness
from one generator derived from ``(seed, b)`` through numpy's
``SeedSequence`` spawn-key mechanism.  ``BLOCK`` is a constant, never derived
from the worker count or from ``n``, so stream identity does not depend on
how blocks are spread across workers or in what order they run.  A single
simulated path (``simulate_*``, ``catpop simulate``) is the one-replica block
on ``(seed, replica_index)``.
"""

from __future__ import annotations

import numpy as np

_U64 = 1 << 64

BLOCK = 1024  # replicas per random stream


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    seed = int(seed)
    if not 0 <= seed < _U64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def replica_rng(seed: int, replica_index: int) -> np.random.Generator:
    """Independent generator of stream ``(seed, replica_index)``.

    The index is a block index for the block kernels and a replica index for
    a single simulated path.
    """
    if replica_index < 0:
        raise ValueError(f"replica_index must be nonnegative, got {replica_index}")
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=(int(replica_index),))
    return np.random.Generator(np.random.PCG64(ss))


def float_key(x: float) -> int:
    """Stable integer key for a float (its IEEE-754 bit pattern)."""
    return int(np.float64(x).view(np.uint64))


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a sub-experiment seed from a base seed and integer keys.

    Used to give, e.g., every horizon T in a sweep its own seed so results
    do not depend on sweep order.
    """
    ss = np.random.SeedSequence(entropy=[check_seed(seed)] + [int(k) & (_U64 - 1) for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
