"""Seeded random-number streams, one per stochastic consumer.

Environment dynamics, exploration at each level, and replay sampling all
draw from their own generator so that adding, removing, or reordering
draws in one consumer never perturbs the others. Streams are derived
from a (seed, stream id) pair through numpy's SeedSequence spawning,
which yields statistically independent, bit-reproducible generators.
Evaluation episodes extend the key to (EVAL, episode, consumer), so they
never replay a training stream, nor another seed's evaluation.
"""
from __future__ import annotations

import numpy as np

# Stream ids. Values are part of the reproducibility contract: changing
# them changes every run.
ENV = 0
CONTROLLER = 1
META = 2
REPLAY_D1 = 3
REPLAY_D2 = 4
INIT = 5
EVAL = 6


def stream(seed: int, stream_id: int, *sub: int) -> np.random.Generator:
    """Return the generator for (seed, stream_id, *sub).

    The same key always produces the same sequence. Distinct keys give
    independent streams.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a non-negative 64-bit integer, got {seed}")
    if stream_id < 0:
        raise ValueError(f"stream_id must be non-negative, got {stream_id}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, *sub))
    return np.random.Generator(np.random.PCG64(ss))
