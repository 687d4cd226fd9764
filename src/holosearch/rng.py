"""Deterministic random streams.

Every stochastic choice in the package draws from numpy's PCG64 generator,
seeded from a single 64-bit master seed. Independent concerns get independent
sub-streams derived with ``SeedSequence(master_seed, spawn_key=(stream,))`` so
that, for a fixed master seed, changing how often one consumer draws can never
perturb another consumer's sequence. That separation is what lets two searches
that differ only in pixel-selection policy start from the identical random
back-projection.

Stream assignments (stable, part of the reproducibility contract):

====================  =====
initial phase randomization  0
pixel selection              1
value proposal               2
annealing acceptance         3
====================  =====
"""

from __future__ import annotations

import numpy as np

STREAM_PHASE = 0
STREAM_SELECTION = 1
STREAM_PROPOSAL = 2
STREAM_ACCEPTANCE = 3


def substream(master_seed: int, stream: int) -> np.random.Generator:
    """Return the PCG64 generator for one documented sub-stream of a seed."""
    if not isinstance(master_seed, (int, np.integer)) or isinstance(master_seed, bool):
        raise TypeError(f"master_seed must be an integer, got {type(master_seed).__name__}")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=(int(stream),)))
