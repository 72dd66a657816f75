"""Bounded FIFO experience memories with uniform minibatch sampling.

Two disjoint memories exist at runtime: one holding per-step controller
transitions (s, g, a, r, s', term), one holding per-option meta
transitions (s0, goal choice, F, s_next, term), where F is the
undiscounted sum of environment rewards collected while the option ran.
The meta memory has no goal axis: its choice is stored as the action.

Each memory is a preallocated ring of columns: one integer block for
s, [g,] a, s' and one float block for r, term. Blocks are allocated
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

    ints holds (s, g, a, s') per row, or (s, a, s') without a goal axis;
    floats holds (r, term) with term 1.0 or 0.0. Row `cursor` is the one
    the next push overwrites, so once the ring is full, rows cursor..end
    followed by 0..cursor are oldest first.
    """

    __slots__ = ("capacity", "goal_axis", "ints", "floats", "cursor", "_size", "_gen", "_u", "_upos")

    def __init__(self, capacity: int, gen: np.random.Generator, goal_axis: bool = True):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.goal_axis = goal_axis
        self.ints = np.zeros((capacity, 4 if goal_axis else 3), dtype=np.int32)
        self.floats = np.zeros((capacity, 2))
        self.cursor = 0
        self._size = 0
        self._gen = gen
        self._u = np.empty(0)
        self._upos = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state, goal, action, reward, next_state, terminal) -> None:
        """Store one transition; goal is None without a goal axis."""
        i = self.cursor
        if goal is None:
            self.ints[i] = (state, action, next_state)
        else:
            self.ints[i] = (state, goal, action, next_state)
        self.floats[i] = (reward, terminal)
        i += 1
        if i == self.capacity:
            i = 0
        self.cursor = i
        if self._size < self.capacity:
            self._size += 1

    def sample(self, k: int) -> tuple:
        """k uniform draws with replacement, as (s, g, a, r, s', term)
        columns; g is None without a goal axis. The buffer must be
        non-empty."""
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
        r, term = self.floats.take(idx, axis=0).T
        if self.goal_axis:
            s, g, a, s_next = self.ints.take(idx, axis=0).T
        else:
            s, a, s_next = self.ints.take(idx, axis=0).T
            g = None
        return s, g, a, r, s_next, term
