"""Seeded random-number streams, one per stochastic consumer.

Environment dynamics, exploration at each level, and replay sampling all
draw from their own generator so that adding, removing, or reordering
draws in one consumer never perturbs the others. Streams are derived
from a (seed, stream id) pair through numpy's SeedSequence spawning,
which yields statistically independent, bit-reproducible generators.
Evaluation episodes extend the key to (EVAL, episode, consumer), so they
never replay a training stream, nor another seed's evaluation.

A key opens in one of two forms that yield the same values. Consumers
that draw arrays (replay sampling, a network's initial weights,
evaluation episodes, which are too short to fill a block) take
stream(), a numpy Generator. The training loops' scalar consumers (an
environment's step(action, rng), the one env call that draws, and
eps_greedy at each level) take draws(), which serves Generator.random()
and Generator.integers(n) from blocks of raw PCG64 output without a
numpy call per draw.
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

BLOCK = 512  # raw 64-bit words per refill; two lists this long stay small
_UINT32 = 1 << 32


def _bit_generator(seed: int, stream_id: int, sub: tuple) -> np.random.PCG64:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a non-negative 64-bit integer, got {seed}")
    if stream_id < 0:
        raise ValueError(f"stream_id must be non-negative, got {stream_id}")
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, *sub)))


def stream(seed: int, stream_id: int, *sub: int) -> np.random.Generator:
    """Return the generator for (seed, stream_id, *sub).

    The same key always produces the same sequence. Distinct keys give
    independent streams.
    """
    return np.random.Generator(_bit_generator(seed, stream_id, sub))


def draws(seed: int, stream_id: int, *sub: int) -> Draws:
    """Return the scalar draws for (seed, stream_id, *sub): the values of
    stream(seed, stream_id, *sub)'s random() and integers(n), in call order."""
    return Draws(_bit_generator(seed, stream_id, sub))


class Draws:
    """Scalar draws of a numpy Generator over PCG64, served from blocks.

    random() and integers(n) return exactly what Generator.random() and
    int(Generator.integers(n)) return on the same bit generator, called in
    the same order; random() returns a float and integers(n) an int.
    Both read one block of raw 64-bit words at a time, as ints and as the
    doubles random() makes of them, (word >> 11) * 2**-53.

    integers(n) follows numpy's bounded 32-bit path, Lemire's
    multiply-shift with rejection (Lemire 2019, "Fast Random Integer
    Generation in an Interval"). It takes 32-bit words from PCG64's own
    half-word buffer: a fresh 64-bit word yields its low half, and its
    high half is carried to the next 32-bit draw, across any random()
    calls in between. integers(1) draws nothing, as numpy's does; n must
    lie in [1, 2**32], the range this path covers.
    """

    __slots__ = ("_bits", "_words", "_uniforms", "_pos", "_half")

    def __init__(self, bits: np.random.PCG64):
        self._bits = bits
        self._words = []
        self._uniforms = []
        self._pos = BLOCK  # the first draw refills
        self._half = None  # the high half-word carried to the next 32-bit draw

    def _refill(self) -> int:
        """Read the next block; return the position of its first word."""
        raw = self._bits.random_raw(BLOCK)
        self._words = raw.tolist()
        self._uniforms = ((raw >> np.uint64(11)) * 2.0**-53).tolist()
        return 0

    def random(self) -> float:
        i = self._pos
        if i == BLOCK:
            i = self._refill()
        self._pos = i + 1
        return self._uniforms[i]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        i = self._pos
        if i == BLOCK:
            i = self._refill()
        self._pos = i + 1
        word = self._words[i]
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """A uniform int in [0, n), for a Python int n."""
        if not 1 < n <= _UINT32:
            if n == 1:
                return 0
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        m = self._uint32() * n
        leftover = m & 0xFFFFFFFF
        if leftover < n:
            threshold = (_UINT32 - n) % n
            while leftover < threshold:
                m = self._uint32() * n
                leftover = m & 0xFFFFFFFF
        return m >> 32
