"""Deterministic random-stream management.

Every stochastic component (mobility, protocol, samplers) receives its own
``numpy.random.Generator`` spawned from a root ``SeedSequence``, so a whole
experiment — including multi-trial sweeps — is reproducible bit-for-bit
from a single integer seed, and trials are statistically independent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn_rngs", "spawn_seeds", "child_seeds"]


def make_rng(seed=None) -> np.random.Generator:
    """A generator from an integer seed, ``SeedSequence``, or ``None``."""
    return np.random.default_rng(seed)


def spawn_rngs(seed, k: int) -> list:
    """``k`` independent generators derived from one root seed."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(k)]


def spawn_seeds(seed, k: int) -> list:
    """``k`` independent child ``SeedSequence`` objects from one root seed.

    Use when the children must themselves spawn (e.g. one seed per trial,
    which then splits into mobility and protocol streams).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(k)


def child_seeds(seed_seq: np.random.SeedSequence, k: int) -> list:
    """The first ``k`` children of ``seed_seq``, leaving it untouched.

    ``seed_seq.spawn(k)`` advances the parent's child counter, so a second
    call on the same parent returns different children.  These are the
    children a fresh parent's ``spawn(k)`` returns, rebuilt from its
    entropy and spawn key: running a trial twice from one sequence draws
    the same streams both times.
    """
    return [
        np.random.SeedSequence(
            seed_seq.entropy,
            spawn_key=seed_seq.spawn_key + (i,),
            pool_size=seed_seq.pool_size,
        )
        for i in range(k)
    ]
