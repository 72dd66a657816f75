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

A minibatch of k is (u[pos:pos+k] * fill).astype(intp) gathered from
the live ring, where u[pos:pos+k] are the block's next k uniforms and
fill = min(pushes, capacity) is the ring's size at that call: the push
count is the ring's one clock, and the next push writes position
pushes % capacity. A refill may gather the whole block at once, scaled
by the fill each later call will see if one push comes before each
call, and mark each minibatch that reads a slot the coming pushes will
write: minibatch j is marked if it reads a position p with
(p - pushes) % capacity < j. Call j of the block takes its minibatch
from the block when exactly j pushes have happened since the block was
gathered, its k is the block's and its minibatch is unmarked. sample
tests for that hit before anything else, so a hit costs a few
comparisons and no numpy call. Any other call gathers its own from the
ring, so either way a call gets the same values. Every block is a fresh
array, so a minibatch a caller holds never changes. A block is gathered
at the ring's first refill and at each refill that passes the hit test
at the block's end; any other refill drops it, and the ring gathers per
call from then on. So the controller's memory, which pushes before
every sample, gathers at every refill, and the meta memory, which
pushes once per option, gathers one block.
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
# pattern) gathers all UNIFORM_BLOCK // k minibatches at once (128 at
# k = 32), one (128, k) array per column.
UNIFORM_BLOCK = 4096


class ReplayBuffer:
    """Ring of transition columns: O(1) pushes, the oldest row evicted first.

    cell and row_next are int32, r and disc float64. Position `cursor`
    is the one the next push overwrites, so once the ring is full,
    positions cursor..end followed by 0..cursor are oldest first.
    """

    __slots__ = (
        "capacity", "cell", "row_next", "r", "disc",
        "_gen", "_u", "_upos", "_pushes", "_bk", "_bpush", "_block",
    )

    def __init__(self, capacity: int, gen: np.random.Generator):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.cell = np.zeros(capacity, dtype=np.int32)
        self.row_next = np.zeros(capacity, dtype=np.int32)
        self.r = np.zeros(capacity)
        self.disc = np.zeros(capacity)
        self._gen = gen
        self._u = np.empty(0)
        self._upos = 0
        self._pushes = 0  # pushes ever made: the ring's one clock
        self._bk = None  # k of the gathered block; None when there is none
        self._bpush = 0  # pushes made before the block's first call
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

    def sample(self, k: int) -> tuple:
        """k uniform draws with replacement, as (cell, row', r, disc)
        columns, cell and row' intp. The buffer must be non-empty."""
        pos = self._upos
        pushes = self._pushes
        i = pushes - self._bpush
        # A block hit first: it needs a gathered block, so a positive k
        # and a non-empty ring. The block's sentinel last row is None, so
        # at the block's end the call is on the pattern but misses.
        on_pattern = k == self._bk and pos == i * k
        if on_pattern:
            batch = self._block[i]
            if batch is not None:
                self._upos = pos + k
                return batch
        if not pushes:
            raise ValueError("sample() on an empty replay buffer")
        if k <= 0:
            raise ValueError(f"minibatch size must be positive, got {k}")
        if pos + k > self._u.size:
            self._u = self._gen.random(max(UNIFORM_BLOCK, k))
            self._upos = k
            if on_pattern or not pos:  # pos is 0 only before the first refill
                return self._gather_block(k)
            self._bk = None
            self._block = []
            pos = 0
        else:
            self._upos = pos + k
        fill = min(pushes, self.capacity)
        return self._gather((self._u[pos : pos + k] * fill).astype(np.intp))

    def _gather(self, idx: np.ndarray) -> tuple:
        """The four columns at positions idx, a fresh array each."""
        return (
            self.cell.take(idx).astype(np.intp),
            self.row_next.take(idx).astype(np.intp),
            self.r.take(idx),
            self.disc.take(idx),
        )

    def _gather_block(self, k: int) -> tuple:
        """Gather every minibatch of a fresh uniform block, minibatch j
        scaled by the fill after j more pushes; keep the ones those
        pushes leave intact and return the first."""
        pushes = self._pushes
        n = self._u.size // k
        ahead = np.arange(n)
        fill = np.minimum(pushes + ahead, self.capacity)
        idx = (self._u[: n * k].reshape(n, k) * fill[:, None]).astype(np.intp)
        marked = ((idx - pushes) % self.capacity < ahead[:, None]).any(axis=1)
        block = list(zip(*self._gather(idx)))
        for j in np.flatnonzero(marked).tolist():
            block[j] = None
        block.append(None)
        self._block = block
        self._bk = k
        self._bpush = pushes
        return block[0]
