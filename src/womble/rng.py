"""Deterministic random-stream derivation.

All randomness in the package flows from one top-level seed. Independent
units of work (chains, simulation replicates, permutations) draw from
streams derived via named spawn keys, so results are reproducible and
independent of execution order or worker count.
"""

import numpy as np

# spawn-key namespaces
CHAIN = 0
REPLICATE = 1
PERMUTATION = 2


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for stream `key` under `seed`; same arguments, same stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))
