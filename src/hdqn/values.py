"""Goal-conditioned action-value estimators.

Two interchangeable backends behind one minibatch contract. TabularQ is
a dense table; MlpQ is a one-hidden-layer rectified linear network
trained by plain stochastic gradient descent on squared error against
frozen-snapshot bootstrap targets. A goal-conditioned table is the
one-hot linear case of such a network, so both train the same way.

With a goal axis (n_goals set) an estimator serves the low level:
values are indexed (state, goal, action). Without one it serves the
meta level: values are indexed (state, choice) where choices are goals.
train_on takes a minibatch as columns (s, g, a, r, s', term) of equal
length, g None without a goal axis and term 1.0 where the transition
ended its episode or option; ReplayBuffer.sample returns exactly this.

Estimators have no file format of their own: checkpoint.py writes their
arrays (the table, or params and snapshot) as sections of the agent
checkpoint.
"""
from __future__ import annotations

import numpy as np

from hdqn.errors import DivergenceError


class TabularQ:
    """Dense zero-initialized value table, an ndarray of shape
    (n_states, n_choices) or (n_states, n_goals, n_choices).

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
        if n_goals is None:
            self.table = np.zeros((n_states, n_choices))
        else:
            self.table = np.zeros((n_states, n_goals, n_choices))

    def values(self, state: int, goal: int | None = None) -> list:
        """Action values at a state (copy; mutating it has no effect)."""
        if not 0 <= state < self.n_states:
            raise IndexError(f"state {state} out of range [0, {self.n_states})")
        if self.n_goals is None:
            if goal is not None:
                raise IndexError("this table is not goal-conditioned")
            return self.table[state].tolist()
        if goal is None or not 0 <= goal < self.n_goals:
            raise IndexError(f"goal {goal} out of range [0, {self.n_goals})")
        return self.table[state, goal].tolist()

    def backup(
        self,
        state: int,
        goal: int | None,
        action: int,
        reward: float,
        next_state: int,
        terminal: bool,
        gamma: float,
    ) -> None:
        """Q(s[,g],a) += alpha * (r + gamma * max_a' Q(s'[,g],a') * !terminal - Q).

        The one-transition case of train_on.
        """
        self.train_on(
            (
                np.array([state]),
                None if goal is None else np.array([goal]),
                np.array([action]),
                np.array([reward], dtype=np.float64),
                np.array([next_state]),
                np.array([terminal], dtype=np.float64),
            ),
            gamma,
        )

    def train_on(self, columns: tuple, gamma: float) -> float:
        """One batch-synchronous backup of every item in the columns.

        Returns the mean squared pre-update temporal-difference error.
        """
        s, g, a, r, s_next, term = columns
        table = self.table
        if g is None:
            cell = np.ravel_multi_index((s, a), table.shape)
            bootstrap = table.take(s_next, axis=0)
        else:
            cell = np.ravel_multi_index((s, g, a), table.shape)
            row_next = np.ravel_multi_index((s_next, g), table.shape[:2])
            bootstrap = table.reshape(-1, self.n_choices).take(row_next, axis=0)
        target = r + gamma * (1.0 - term) * bootstrap.max(axis=1)
        cells = table.reshape(-1)
        delta = target - cells.take(cell)
        np.add.at(cells, cell, self.learning_rate * delta)
        return float(delta @ delta) / delta.size


class MlpQ:
    """One-hidden-layer rectified linear action-value network.

    Inputs are one-hot state vectors, concatenated with a one-hot goal
    vector when goal-conditioned. A frozen snapshot of the parameters
    supplies bootstrap targets and changes only on sync_target().
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
        init_rng: np.random.Generator | None = None,
    ):
        if n_states <= 0 or n_choices <= 0 or (n_goals is not None and n_goals <= 0):
            raise ValueError("network dimensions must be positive")
        if hidden <= 0:
            raise ValueError(f"hidden must be positive, got {hidden}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if init_rng is None:
            init_rng = np.random.default_rng(0)
        self.n_states = n_states
        self.n_choices = n_choices
        self.n_goals = n_goals
        self.hidden = hidden
        self.learning_rate = learning_rate
        self.train_steps = 0
        d = n_states + (n_goals or 0)
        self.params = {
            "w1": init_rng.uniform(-1.0, 1.0, size=(d, hidden)) / np.sqrt(d),
            "b1": np.zeros(hidden),
            "w2": init_rng.uniform(-1.0, 1.0, size=(hidden, n_choices)) / np.sqrt(hidden),
            "b2": np.zeros(n_choices),
        }
        self.snapshot = {k: v.copy() for k, v in self.params.items()}

    @property
    def input_dim(self) -> int:
        return self.n_states + (self.n_goals or 0)

    def encode(self, states, goals=None) -> np.ndarray:
        """One-hot (plus one-hot goal) rows for a batch of indices."""
        states = np.asarray(states, dtype=np.int64)
        n = states.shape[0]
        x = np.zeros((n, self.input_dim))
        x[np.arange(n), states] = 1.0
        if self.n_goals is not None:
            if goals is None:
                raise IndexError("goal-conditioned network needs goal indices")
            goals = np.asarray(goals, dtype=np.int64)
            x[np.arange(n), self.n_states + goals] = 1.0
        elif goals is not None:
            raise IndexError("this network is not goal-conditioned")
        return x

    @staticmethod
    def _forward(params: dict, x: np.ndarray):
        z1 = x @ params["w1"] + params["b1"]
        h = np.maximum(z1, 0.0)
        q = h @ params["w2"] + params["b2"]
        return z1, h, q

    def _check_indices(self, state, goal) -> None:
        if not 0 <= state < self.n_states:
            raise IndexError(f"state {state} out of range [0, {self.n_states})")
        if self.n_goals is not None and not (goal is not None and 0 <= goal < self.n_goals):
            raise IndexError(f"goal {goal} out of range [0, {self.n_goals})")

    def values(self, state: int, goal: int | None = None) -> np.ndarray:
        self._check_indices(state, goal)
        x = self.encode([state], None if self.n_goals is None else [goal])
        return self._forward(self.params, x)[2][0]

    def loss_and_grads(self, columns: tuple, gamma: float):
        """Pre-step batch loss and its gradient for every parameter."""
        s, g, a, r, s_next, term = columns
        qn = self._forward(self.snapshot, self.encode(s_next, g))[2]
        y = r + gamma * (1.0 - term) * qn.max(axis=1)
        x = self.encode(s, g)
        z1, h, q = self._forward(self.params, x)
        n = len(y)
        rows = np.arange(n)
        diff = q[rows, a] - y
        loss = float(np.mean(diff**2))
        gq = np.zeros_like(q)
        gq[rows, a] = 2.0 * diff / n
        gh = gq @ self.params["w2"].T
        gz1 = gh * (z1 > 0.0)
        grads = {
            "w2": h.T @ gq,
            "b2": gq.sum(axis=0),
            "w1": x.T @ gz1,
            "b1": gz1.sum(axis=0),
        }
        return loss, grads

    def train_on(self, columns: tuple, gamma: float) -> float:
        """One SGD step on the minibatch columns; returns the pre-step loss."""
        loss, grads = self.loss_and_grads(columns, gamma)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite training loss {loss!r}")
        lr = self.learning_rate
        for name in self.PARAM_NAMES:
            self.params[name] -= lr * grads[name]
        self.train_steps += 1
        return loss

    def sync_target(self) -> None:
        """snapshot := live parameters."""
        for name in self.PARAM_NAMES:
            np.copyto(self.snapshot[name], self.params[name])
