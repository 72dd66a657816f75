"""Goal-conditioned action-value estimators.

Two interchangeable backends. TabularQ is an exact dense table updated
by single-transition backups; MlpQ is a one-hidden-layer rectified
linear network trained by plain stochastic gradient descent on squared
error against frozen-snapshot bootstrap targets.

With a goal axis (n_goals set) an estimator serves the low level:
values are indexed (state, goal, action) and training batches are
6-tuples (state, goal, action, reward, next_state, terminal). Without
one it serves the meta level: values are indexed (state, choice) where
choices are goals, and batches are 5-tuples (state, choice, reward,
next_state, terminal). Replay transition tuples match these shapes
field-for-field.

Estimators have no file format of their own: checkpoint.py writes their
arrays (as_array/load_array for tables, params and snapshot for
networks) as sections of the agent checkpoint.
"""
from __future__ import annotations

import numpy as np

from hdqn.errors import DivergenceError


class TabularQ:
    """Dense zero-initialized value table.

    Storage is nested Python lists rather than an ndarray: backups
    dominate training time on the small tasks, and plain list indexing
    makes them several times faster than ndarray scalar access. Use
    as_array() for a numpy view of the contents.
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
            self.table = [[0.0] * n_choices for _ in range(n_states)]
        else:
            self.table = [
                [[0.0] * n_choices for _ in range(n_goals)] for _ in range(n_states)
            ]

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.n_states:
            raise IndexError(f"state {state} out of range [0, {self.n_states})")

    def values(self, state: int, goal: int | None = None) -> list:
        """Action values at a state (copy; mutating it has no effect)."""
        self._check_state(state)
        if self.n_goals is None:
            if goal is not None:
                raise IndexError("this table is not goal-conditioned")
            return list(self.table[state])
        if goal is None or not 0 <= goal < self.n_goals:
            raise IndexError(f"goal {goal} out of range [0, {self.n_goals})")
        return list(self.table[state][goal])

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
        """Q(s[,g],a) += alpha * (r + gamma * max_a' Q(s'[,g],a') * !terminal - Q)."""
        table = self.table
        if goal is None:
            row = table[next_state]
            cell = table[state]
        else:
            row = table[next_state][goal]
            cell = table[state][goal]
        if terminal:
            target = reward
        else:
            m = row[0]
            for v in row:
                if v > m:
                    m = v
            target = reward + gamma * m
        cur = cell[action]
        cell[action] = cur + self.learning_rate * (target - cur)

    def train_on(self, batch: list, gamma: float) -> float:
        """One backup per sampled transition, in batch order.

        Equivalent to calling backup() on each item; unrolled here
        because this loop is the training hot path. Returns the mean
        squared pre-update temporal-difference error.
        """
        table = self.table
        alpha = self.learning_rate
        err = 0.0
        if self.n_goals is None:
            for state, action, reward, next_state, terminal in batch:
                if terminal:
                    target = reward
                else:
                    row = table[next_state]
                    m = row[0]
                    for v in row:
                        if v > m:
                            m = v
                    target = reward + gamma * m
                cell = table[state]
                cur = cell[action]
                delta = target - cur
                cell[action] = cur + alpha * delta
                err += delta * delta
        else:
            for state, goal, action, reward, next_state, terminal in batch:
                if terminal:
                    target = reward
                else:
                    row = table[next_state][goal]
                    m = row[0]
                    for v in row:
                        if v > m:
                            m = v
                    target = reward + gamma * m
                cell = table[state][goal]
                cur = cell[action]
                delta = target - cur
                cell[action] = cur + alpha * delta
                err += delta * delta
        return err / len(batch)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.float64)

    def load_array(self, values: np.ndarray) -> None:
        want = (
            (self.n_states, self.n_choices)
            if self.n_goals is None
            else (self.n_states, self.n_goals, self.n_choices)
        )
        values = np.asarray(values, dtype=np.float64)
        if values.shape != want:
            raise ValueError(f"expected table shape {want}, got {values.shape}")
        self.table = values.tolist()


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

    def _split_batch(self, batch: list):
        if self.n_goals is None:
            s, a, r, sn, term = zip(*batch)
            g = None
        else:
            s, g, a, r, sn, term = zip(*batch)
        return s, g, a, r, sn, term

    def _targets(self, g, r, sn, term, gamma: float) -> np.ndarray:
        xn = self.encode(sn, g)
        qn = self._forward(self.snapshot, xn)[2]
        bootstrap = qn.max(axis=1) * (1.0 - np.asarray(term, dtype=np.float64))
        return np.asarray(r, dtype=np.float64) + gamma * bootstrap

    def loss_and_grads(self, batch: list, gamma: float):
        """Pre-step batch loss and its gradient for every parameter."""
        s, g, a, r, sn, term = self._split_batch(batch)
        y = self._targets(g, r, sn, term, gamma)
        x = self.encode(s, g)
        z1, h, q = self._forward(self.params, x)
        n = len(batch)
        rows = np.arange(n)
        cols = np.asarray(a, dtype=np.int64)
        diff = q[rows, cols] - y
        loss = float(np.mean(diff**2))
        gq = np.zeros_like(q)
        gq[rows, cols] = 2.0 * diff / n
        gh = gq @ self.params["w2"].T
        gz1 = gh * (z1 > 0.0)
        grads = {
            "w2": h.T @ gq,
            "b2": gq.sum(axis=0),
            "w1": x.T @ gz1,
            "b1": gz1.sum(axis=0),
        }
        return loss, grads

    def train_on(self, batch: list, gamma: float) -> float:
        """One SGD step on the batch; returns the pre-step loss."""
        loss, grads = self.loss_and_grads(batch, gamma)
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

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.params[n].ravel() for n in self.PARAM_NAMES])

    def load_flat_params(self, flat: np.ndarray) -> None:
        expected = sum(p.size for p in self.params.values())
        if flat.size != expected:
            raise ValueError(f"expected {expected} parameters, got {flat.size}")
        pos = 0
        for name in self.PARAM_NAMES:
            p = self.params[name]
            p[...] = flat[pos : pos + p.size].reshape(p.shape)
            pos += p.size
