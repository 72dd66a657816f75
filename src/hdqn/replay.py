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
memory, until it fills. cell and row' are stored as int32. Sampling is
uniform with replacement, returns the four columns in the estimators'
train_on order, with cell and row' as intp so that the estimators index
with them as they are, and leaves the ring unchanged.

A ring is built for its one minibatch size k. Minibatch j of a block
of uniforms u is (u[j*k:(j+1)*k] * fill).astype(intp) gathered from
the live ring, where fill = min(pushes, capacity) is the ring's size at
that call: the push count is the ring's one clock, and the next push
writes position pushes % capacity. A refill may gather the whole block
at once, scaled by the fill each later call will see if one push comes
before each call, and mark each minibatch that reads a slot the coming
pushes will write: minibatch j is marked if it reads a position p with
(p - pushes) % capacity < j. Minibatch j takes its value from the
block when exactly j pushes have happened since the block was gathered
and it is unmarked. sample tests for that hit before anything else, so
a hit costs a few comparisons and no numpy call. Any other call gathers
its own from the ring, so either way a call gets the same values. Every
block is a fresh array, so a minibatch a caller holds never changes. A
block is gathered at the ring's first refill and at each refill that
passes the hit test at the block's end; any other refill drops it, and
the ring gathers per call from then on. So the controller's memory,
which pushes before every sample, gathers at every refill, and the meta
memory, which pushes once per option, gathers one block.
"""
from __future__ import annotations

import numpy as np

# Uniforms drawn from the buffer's stream per refill. Each minibatch
# takes the next k of them and scales them by the fill at that moment,
# so draws stay uniform while the ring grows. The scaled uniforms are
# truncated with astype(intp): np.multiply into an intp out= array with
# casting="unsafe" gives the same indices but goes through numpy's
# buffered cast, which timed slower at k = 32 (2.5 us against 1.5 us).
# A block refill (the ring's first, and each on the held block's
# pattern) gathers all max(UNIFORM_BLOCK, k) // k minibatches at once
# (128 at k = 32), one (128, k) array per column.
UNIFORM_BLOCK = 4096
# _bpush while no block is held: pushes - _NO_BLOCK exceeds every
# minibatch index, at most UNIFORM_BLOCK, so no call is on a pattern.
_NO_BLOCK = -UNIFORM_BLOCK - 1


class ReplayBuffer:
    """Ring of transition columns: O(1) pushes, the oldest row evicted first.

    cell and row_next are int32, r and disc float64. Position `cursor`
    is the one the next push overwrites, so once the ring is full,
    positions cursor..end followed by 0..cursor are oldest first.
    """

    __slots__ = (
        "capacity", "k", "cell", "row_next", "r", "disc",
        "_gen", "_u", "_n", "_j", "_pushes", "_bpush", "_block",
    )

    def __init__(self, capacity: int, k: int, gen: np.random.Generator):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if k <= 0:
            raise ValueError(f"minibatch size must be positive, got {k}")
        self.capacity = capacity
        self.k = k
        self.cell = np.zeros(capacity, dtype=np.int32)
        self.row_next = np.zeros(capacity, dtype=np.int32)
        self.r = np.zeros(capacity)
        self.disc = np.zeros(capacity)
        self._gen = gen
        self._u = np.empty(0)
        self._n = max(UNIFORM_BLOCK, k) // k  # minibatches per uniform block
        self._j = self._n  # the next minibatch's index in the block; n refills
        self._pushes = 0  # pushes ever made: the ring's one clock
        self._bpush = _NO_BLOCK  # pushes made before the block's first call
        self._block = []  # the block's minibatches, None where marked, and a None past its end

    @property
    def cursor(self) -> int:
        return self._pushes % self.capacity

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def push(self, cell, row_next, reward, disc) -> None:
        """Store one transition."""
        i = self._pushes % self.capacity
        self.cell[i] = cell
        self.row_next[i] = row_next
        self.r[i] = reward
        self.disc[i] = disc
        self._pushes += 1

    def sample(self) -> tuple:
        """k uniform draws with replacement, as (cell, row', r, disc)
        columns, cell and row' intp. The buffer must be non-empty."""
        j = self._j
        pushes = self._pushes
        # A block hit first. With no block held, no call is on the
        # pattern. The block's sentinel last row is None, so at the
        # block's end the call is on the pattern but misses.
        on_pattern = j == pushes - self._bpush
        if on_pattern:
            batch = self._block[j]
            if batch is not None:
                self._j = j + 1
                return batch
        if not pushes:
            raise ValueError("sample() on an empty replay buffer")
        k = self.k
        if j == self._n:
            first = not self._u.size
            self._u = self._gen.random(max(UNIFORM_BLOCK, k))
            self._j = 1
            if on_pattern or first:
                return self._gather_block()
            self._bpush = _NO_BLOCK
            self._block = []
            j = 0
        else:
            self._j = j + 1
        fill = min(pushes, self.capacity)
        return self._gather((self._u[j * k : (j + 1) * k] * fill).astype(np.intp))

    def _gather(self, idx: np.ndarray) -> tuple:
        """The four columns at positions idx, a fresh array each."""
        return (
            self.cell.take(idx).astype(np.intp),
            self.row_next.take(idx).astype(np.intp),
            self.r.take(idx),
            self.disc.take(idx),
        )

    def _gather_block(self) -> tuple:
        """Gather every minibatch of a fresh uniform block, minibatch j
        scaled by the fill after j more pushes; keep the ones those
        pushes leave intact and return the first."""
        pushes, n, k = self._pushes, self._n, self.k
        ahead = np.arange(n)
        fill = np.minimum(pushes + ahead, self.capacity)
        idx = (self._u[: n * k].reshape(n, k) * fill[:, None]).astype(np.intp)
        marked = ((idx - pushes) % self.capacity < ahead[:, None]).any(axis=1)
        block = list(zip(*self._gather(idx)))
        for j in np.flatnonzero(marked).tolist():
            block[j] = None
        block.append(None)
        self._block = block
        self._bpush = pushes
        return block[0]
