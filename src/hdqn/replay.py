"""Bounded FIFO experience memories with uniform minibatch sampling.

Two disjoint memories exist at runtime: one holding per-step controller
transitions, one holding per-option meta transitions. Each transition
is stored as the four columns the estimators' update reads, formed by
the agent at push time (hierarchical.py):

- cell, the flat index row * n_choices + a of the value being updated,
  where the controller's row is state * n_goals + goal and its choice a
  primitive action, and the meta level's row is the state and its
  choice a goal;
- row', the bootstrap row: the next state with the same goal for the
  controller, the state the option ended in for the meta level;
- r, the intrinsic reward for the controller, and for the meta level F,
  the undiscounted sum of environment rewards collected while the
  option ran;
- disc, 0.0 if the transition ended its episode or option, else gamma.

Each column is a preallocated 1-D array, allocated zeroed and written
one element per push, so a large capacity costs address space, not
memory, until it fills. Sampling is uniform with replacement, returns
the four columns in the estimators' train_on order and leaves the ring
unchanged.
"""
from __future__ import annotations

import numpy as np

# Uniforms drawn from the buffer's stream per refill. Each minibatch
# takes the next k of them and scales them by the fill at that moment,
# so draws stay uniform while the ring grows. The scaled uniforms are
# truncated with astype(intp): np.multiply into an intp out= array with
# casting="unsafe" gives the same indices but goes through numpy's
# buffered cast, which timed slower at k = 32 (2.5 us against 1.5 us).
UNIFORM_BLOCK = 4096


class ReplayBuffer:
    """Ring of transition columns: O(1) pushes, the oldest row evicted first.

    cell and row_next are int32, r and disc float64. Position `cursor`
    is the one the next push overwrites, so once the ring is full,
    positions cursor..end followed by 0..cursor are oldest first.
    """

    __slots__ = ("capacity", "cell", "row_next", "r", "disc", "cursor", "_size", "_gen", "_u", "_upos")

    def __init__(self, capacity: int, gen: np.random.Generator):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.cell = np.zeros(capacity, dtype=np.int32)
        self.row_next = np.zeros(capacity, dtype=np.int32)
        self.r = np.zeros(capacity)
        self.disc = np.zeros(capacity)
        self.cursor = 0
        self._size = 0
        self._gen = gen
        self._u = np.empty(0)
        self._upos = 0

    def __len__(self) -> int:
        return self._size

    def push(self, cell, row_next, reward, disc) -> None:
        """Store one transition."""
        i = self.cursor
        self.cell[i] = cell
        self.row_next[i] = row_next
        self.r[i] = reward
        self.disc[i] = disc
        i += 1
        if i == self.capacity:
            i = 0
        self.cursor = i
        if self._size < self.capacity:
            self._size += 1

    def sample(self, k: int) -> tuple:
        """k uniform draws with replacement, as (cell, row', r, disc)
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
        return self.cell.take(idx), self.row_next.take(idx), self.r.take(idx), self.disc.take(idx)
