"""Exploration schedules and epsilon-greedy selection."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from hdqn.rng import Draws


def eps_greedy(values: list, epsilon: float, gen: np.random.Generator | Draws) -> int:
    """Uniform choice with probability epsilon, else greedy.

    values is the list of choice values a backend's values(row) returns;
    its length is the number of choices. gen is anything with random()
    and integers(n): the training loops pass an rng.Draws, evaluation a
    numpy Generator; both yield the same choices from one key. The greedy
    choice is the first maximum under >: ties, -0.0 and 0.0 among them,
    break to the lowest index, and a NaN wins only in first place, where
    nothing compares greater. Selection is deterministic given values
    and the generator state.
    """
    if gen.random() < epsilon:
        return int(gen.integers(len(values)))
    return values.index(max(values))


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear anneal from 1, full exploration, to floor over a fixed horizon of steps."""

    floor: float = 0.1
    horizon: int = 50_000

    def __post_init__(self):
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError(f"need 0 <= floor <= 1, got floor={self.floor}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    def value(self, t: int) -> float:
        if t >= self.horizon:
            return self.floor
        return 1.0 - (1.0 - self.floor) * (t / self.horizon)


class GoalSuccessTracker:
    """Sliding success-rate window per goal, driving adaptive exploration.

    The low level explores a goal it reliably reaches very little and a
    goal it keeps failing at maximally: epsilon(g) = max(floor, 1 - rate).
    A goal with no recorded attempts counts as rate 0.
    """

    def __init__(self, n_goals: int, window: int = 100, floor: float = 0.1):
        if n_goals <= 0:
            raise ValueError(f"n_goals must be positive, got {n_goals}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not 0.0 <= floor <= 1.0:
            raise ValueError(f"floor must be in [0, 1], got {floor}")
        self.n_goals = n_goals
        self.window = window
        self.floor = floor
        self._attempts = [deque() for _ in range(n_goals)]
        self._hits = [0] * n_goals

    def record(self, goal: int, success: bool) -> None:
        window = self._attempts[goal]
        window.append(bool(success))
        self._hits[goal] += success
        if len(window) > self.window:
            self._hits[goal] -= window.popleft()

    def success_rate(self, goal: int) -> float:
        n = len(self._attempts[goal])
        if n == 0:
            return 0.0
        return self._hits[goal] / n

    def epsilon(self, goal: int) -> float:
        return max(self.floor, 1.0 - self.success_rate(goal))

    def dump(self) -> list:
        """Window contents, oldest first, for checkpointing."""
        return [list(w) for w in self._attempts]

    def load(self, windows: list) -> None:
        if len(windows) != self.n_goals:
            raise ValueError(
                f"expected {self.n_goals} goal windows, got {len(windows)}"
            )
        for g, outcomes in enumerate(windows):
            if len(outcomes) > self.window or not set(outcomes) <= {0, 1}:
                raise ValueError(f"goal {g}: at most {self.window} outcomes, each 0 or 1")
            self._attempts[g] = deque(bool(o) for o in outcomes)
            self._hits[g] = sum(self._attempts[g])
