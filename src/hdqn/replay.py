"""Bounded FIFO experience memories with uniform minibatch sampling.

Two disjoint memories exist at runtime: one holding per-step controller
transitions, one holding per-option meta transitions. Both store rows,
not states: a row is the one index an estimator reads its values at.
The agent forms it (hierarchical.py): the controller's row is
state * n_goals + goal and the meta level's row is the state. A
controller transition is (row, a, r, row', term) with row' at the
next state and the same goal; a meta transition is (row of s0, goal
choice, F, row of s_next, term), where F is the undiscounted sum of
environment rewards collected while the option ran.

Each memory is a preallocated ring of columns: one int32 block for
row, a, row' and one float block for r, term. Blocks are allocated
zeroed and touched row by row, so a large capacity costs address space,
not memory, until it fills. Sampling is uniform with replacement,
returns column arrays in the estimators' train_on order and leaves the
ring unchanged.
"""
from __future__ import annotations

import numpy as np

# Uniforms drawn from the buffer's stream per refill. Each minibatch
# takes the next k of them and scales them by the fill at that moment,
# so draws stay uniform while the ring grows.
UNIFORM_BLOCK = 4096


class ReplayBuffer:
    """Ring of transition columns: O(1) pushes, the oldest row evicted first.

    ints holds (row, a, row') per transition; floats holds (r, term)
    with term 1.0 or 0.0. Position `cursor` is the one the next push
    overwrites, so once the ring is full, positions cursor..end followed
    by 0..cursor are oldest first.
    """

    __slots__ = ("capacity", "ints", "floats", "cursor", "_size", "_gen", "_u", "_upos")

    def __init__(self, capacity: int, gen: np.random.Generator):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.ints = np.zeros((capacity, 3), dtype=np.int32)
        self.floats = np.zeros((capacity, 2))
        self.cursor = 0
        self._size = 0
        self._gen = gen
        self._u = np.empty(0)
        self._upos = 0

    def __len__(self) -> int:
        return self._size

    def push(self, row, action, reward, next_row, terminal) -> None:
        """Store one transition."""
        i = self.cursor
        self.ints[i] = (row, action, next_row)
        self.floats[i] = (reward, terminal)
        i += 1
        if i == self.capacity:
            i = 0
        self.cursor = i
        if self._size < self.capacity:
            self._size += 1

    def sample(self, k: int) -> tuple:
        """k uniform draws with replacement, as (row, a, r, row', term)
        columns. The buffer must be non-empty."""
        if not self._size:
            raise ValueError("sample() on an empty replay buffer")
        if k <= 0:
            raise ValueError(f"minibatch size must be positive, got {k}")
        pos = self._upos
        if pos + k > self._u.size:
            self._u = self._gen.random(max(UNIFORM_BLOCK, k))
            pos = 0
        self._upos = pos + k
        idx = (self._u[pos : pos + k] * self._size).astype(np.intp)
        row, a, row_next = self.ints.take(idx, axis=0).T
        r, term = self.floats.take(idx, axis=0).T
        return row, a, r, row_next, term
