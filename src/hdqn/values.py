"""Goal-conditioned action-value estimators.

Two interchangeable backends behind one minibatch contract. TabularQ is
a dense table; MlpQ is a one-hidden-layer rectified linear network
trained by plain stochastic gradient descent on squared error against
frozen-snapshot bootstrap targets, which reads its first layer by row.
A goal-conditioned table is the one-hot linear case of such a network,
so both train the same way.

Both are indexed by row. With a goal axis (n_goals set) an estimator
serves the low level and has n_states * n_goals rows, row
state * n_goals + goal; without one it serves the meta level, row =
state, and its choices are goals. The agent forms rows; estimators take
them as given. values(row) returns the action values at one row as a
list of n_choices floats, which eps_greedy takes as it is, and
train_on takes a minibatch as four columns (cell, row', r, disc) of
equal length: cell = row * n_choices + a names the value to update,
row' is the bootstrap row, and disc is the bootstrap's discount, 0.0
where the transition ended its episode or option and gamma elsewhere.
The target is r + disc * max_a' Q(row', a'). ReplayBuffer.sample
returns exactly these columns.

make_estimator is the one constructor by backend name, and the index of
a name in BACKENDS is its checkpoint code. Estimators have no file
format of their own: checkpoint.py writes the arrays each one lists in
arrays() as sections of the agent checkpoint, and fills them in place
when it reads one back.
"""
from __future__ import annotations

import math

import numpy as np

from hdqn.errors import DivergenceError

BACKENDS = ("tabular", "mlp")


class TabularQ:
    """Dense zero-initialized value table, an ndarray of shape
    (n_rows, n_choices) with n_rows = n_states * (n_goals or 1). Its C
    order is that of an (n_states, n_goals, n_choices) array.

    train_on takes the bootstrap max with np.maximum.reduceat over the
    flattened (k, n_choices) gather of the bootstrap rows, which is exact
    and cheaper than .max(axis=1) at minibatch sizes; the k segment starts
    are cached and rebuilt when k changes. It reads and updates cells
    through _cells, a flat view of table made once: the checkpoint reader
    fills table in place, so the view stays valid. It takes the loss
    before it scales delta by the learning rate in place, and indexes
    with cell and row' as given, so intp columns (what ReplayBuffer.sample
    returns) need no cast.

    train_on is batch-synchronous, like a network's minibatch step:
    every target comes from the table as it was before the batch, and a
    cell that occurs k times in one batch moves by alpha * (sum of its k
    deltas). At small alpha this matches backing the items up one after
    another to first order; with no repeated cell and no cell whose row
    is another item's bootstrap row, it matches exactly.
    """

    kind = "tabular"

    def __init__(
        self,
        n_states: int,
        n_choices: int,
        n_goals: int | None = None,
        learning_rate: float = 0.1,
    ):
        if n_states <= 0 or n_choices <= 0 or (n_goals is not None and n_goals <= 0):
            raise ValueError("table dimensions must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        self.n_states = n_states
        self.n_choices = n_choices
        self.n_goals = n_goals
        self.learning_rate = learning_rate
        self.table = np.zeros((n_states * (n_goals or 1), n_choices))
        self._cells = self.table.reshape(-1)
        self._k = 0  # batch size the cached segment starts are for
        self._starts = None

    def values(self, row: int) -> list:
        """Action values at a row, as a list (a copy; mutating it has no effect)."""
        if not 0 <= row < len(self.table):
            raise IndexError(f"row {row} out of range [0, {len(self.table)})")
        return self.table[row].tolist()

    def arrays(self) -> list:
        """The arrays a checkpoint stores: the table."""
        return [self.table]

    def backup(
        self,
        row: int,
        action: int,
        reward: float,
        next_row: int,
        terminal: bool,
        gamma: float,
    ) -> None:
        """Q(row,a) += alpha * (r + gamma * max_a' Q(row',a') * !terminal - Q).

        The one-transition case of train_on.
        """
        self.train_on(
            (
                np.array([row * self.n_choices + action]),
                np.array([next_row]),
                np.array([reward], dtype=np.float64),
                np.array([0.0 if terminal else gamma]),
            )
        )

    def train_on(self, columns: tuple) -> float:
        """One batch-synchronous backup of every item in the columns.

        Returns the mean squared pre-update temporal-difference error.
        """
        cell, row_next, r, disc = columns
        k = row_next.size
        if k != self._k:
            self._starts = np.arange(0, k * self.n_choices, self.n_choices)
            self._k = k
        # delta = r + disc * max_a' Q(row', a') - Q[cell], formed in place.
        delta = np.maximum.reduceat(self.table.take(row_next, axis=0).reshape(-1), self._starts)
        delta *= disc
        delta += r
        cells = self._cells
        delta -= cells.take(cell)
        loss = float(delta @ delta) / k
        delta *= self.learning_rate
        np.add.at(cells, cell, delta)
        return loss


class MlpQ:
    """One-hidden-layer rectified linear action-value network.

    The one-hot input (state, then goal) is never built: a row selects
    w1's state row and, with a goal axis, row n_states + goal, whose sum
    plus b1 is exactly x @ w1 + b1. The w1 gradient and update touch
    only the selected rows, each summing its items in batch order.
    A frozen snapshot of the parameters supplies bootstrap targets;
    train_on copies the live parameters into it every target_sync train
    steps.
    Weights start uniform in +/- 1/sqrt(fan_in); biases start at zero.
    """

    kind = "mlp"
    PARAM_NAMES = ("w1", "b1", "w2", "b2")

    def __init__(
        self,
        n_states: int,
        n_choices: int,
        n_goals: int | None = None,
        hidden: int = 64,
        learning_rate: float = 2.5e-4,
        target_sync: int = 1000,
        init_rng: np.random.Generator | None = None,
    ):
        if n_states <= 0 or n_choices <= 0 or (n_goals is not None and n_goals <= 0):
            raise ValueError("network dimensions must be positive")
        if hidden <= 0:
            raise ValueError(f"hidden must be positive, got {hidden}")
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {learning_rate}")
        if target_sync < 1:
            raise ValueError(f"target_sync must be >= 1, got {target_sync}")
        if init_rng is None:
            init_rng = np.random.default_rng(0)
        self.n_states = n_states
        self.n_choices = n_choices
        self.n_goals = n_goals
        self.hidden = hidden
        self.learning_rate = learning_rate
        self.target_sync = target_sync
        self.train_steps = 0
        d = n_states + (n_goals or 0)
        self.params = {
            "w1": init_rng.uniform(-1.0, 1.0, size=(d, hidden)) / np.sqrt(d),
            "b1": np.zeros(hidden),
            "w2": init_rng.uniform(-1.0, 1.0, size=(hidden, n_choices)) / np.sqrt(hidden),
            "b2": np.zeros(n_choices),
        }
        self.snapshot = {k: v.copy() for k, v in self.params.items()}

    def _w1_rows(self, rows) -> np.ndarray:
        """The w1 row indices a batch of rows selects, (k, 1) or (k, 2)."""
        if self.n_goals is None:
            return np.asarray(rows)[:, None]
        states, goals = np.divmod(rows, self.n_goals)
        return np.stack([states, self.n_states + goals], axis=1)

    @staticmethod
    def _forward(params: dict, w1_rows: np.ndarray):
        z1 = params["w1"][w1_rows].sum(axis=1) + params["b1"]
        h = np.maximum(z1, 0.0)
        q = h @ params["w2"] + params["b2"]
        return z1, h, q

    def values(self, row: int) -> list:
        """Action values at a row, as a list."""
        n_rows = self.n_states * (self.n_goals or 1)
        if not 0 <= row < n_rows:
            raise IndexError(f"row {row} out of range [0, {n_rows})")
        return self._forward(self.params, self._w1_rows([row]))[2][0].tolist()

    def loss_and_grads(self, columns: tuple):
        """Pre-step batch loss and its gradient for every parameter; w1's
        is (touched, rows): the selected rows' sorted indices and gradient."""
        cell, row_next, r, disc = columns
        row, a = np.divmod(cell, self.n_choices)
        qn = self._forward(self.snapshot, self._w1_rows(row_next))[2]
        y = r + disc * qn.max(axis=1)
        w1_rows = self._w1_rows(row)
        z1, h, q = self._forward(self.params, w1_rows)
        n = len(y)
        items = np.arange(n)
        diff = q[items, a] - y
        loss = float(np.mean(diff**2))
        gq = np.zeros_like(q)
        gq[items, a] = 2.0 * diff / n
        gh = gq @ self.params["w2"].T
        gz1 = gh * (z1 > 0.0)
        touched, inverse = np.unique(w1_rows, return_inverse=True)
        gw1 = np.zeros((touched.size, self.hidden))
        np.add.at(gw1, inverse.reshape(w1_rows.shape), gz1[:, None, :])
        grads = {
            "w2": h.T @ gq,
            "b2": gq.sum(axis=0),
            "w1": (touched, gw1),
            "b1": gz1.sum(axis=0),
        }
        return loss, grads

    def arrays(self) -> list:
        """The arrays a checkpoint stores: params, then snapshot, each in
        PARAM_NAMES order."""
        return [arrays[n] for arrays in (self.params, self.snapshot) for n in self.PARAM_NAMES]

    def train_on(self, columns: tuple) -> float:
        """One SGD step on the minibatch columns, then a target sync if
        train_steps has reached a multiple of target_sync; returns the
        pre-step loss."""
        loss, grads = self.loss_and_grads(columns)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite training loss {loss!r}")
        lr = self.learning_rate
        touched, gw1 = grads["w1"]
        self.params["w1"][touched] -= lr * gw1
        for name in ("b1", "w2", "b2"):
            self.params[name] -= lr * grads[name]
        self.train_steps += 1
        if self.train_steps % self.target_sync == 0:
            self.sync_target()
        return loss

    def sync_target(self) -> None:
        """snapshot := live parameters."""
        for name in self.PARAM_NAMES:
            np.copyto(self.snapshot[name], self.params[name])


def make_estimator(
    backend: str,
    n_states: int,
    n_choices: int,
    n_goals: int | None,
    learning_rate: float,
    hidden: int = 64,
    target_sync: int = 1000,
    init_rng: np.random.Generator | None = None,
):
    """An estimator of the named backend; a table ignores hidden,
    target_sync and init_rng."""
    if backend == "tabular":
        return TabularQ(n_states, n_choices, n_goals, learning_rate)
    if backend == "mlp":
        return MlpQ(n_states, n_choices, n_goals, hidden, learning_rate, target_sync, init_rng)
    raise ValueError(f"unknown value-function backend {backend!r}")
