"""Six-position random walk whose terminal payoff depends on history.

Positions run 1..6 and the observed state id is position - 1. Episodes
start at position 2 and end on entering position 1. Moving left always
steps down one position. Moving right steps up with probability 0.5 and
otherwise slips down; a successful right move at position 6 stays at 6.
Entering the terminal position pays 1.0 if position 6 was entered
earlier in the episode and 0.01 otherwise; every other step pays 0.

The env records the episode's history in visits, a fresh list of zeros
at each reset, adding one for the state each step enters; the payoff
and the harness's visit columns read it. The history is deliberately
absent from the observed state id, so the payoff is not a function of
the observation an agent conditions on.
"""
from __future__ import annotations

import numpy as np

from hdqn.envs.base import Environment, StepOutcome

LEFT = 0
RIGHT = 1


class ChainEnv(Environment):
    name = "chain"
    # Every observed state is a goal, and the state is the agent's cell.
    goal_names = ("s1", "s2", "s3", "s4", "s5", "s6")
    goal_cells = (0, 1, 2, 3, 4, 5)
    # Nothing to record: make_env builds the one chain from its name.
    layout_text = ""
    step_limit = 0
    n_positions = 6
    n_states = 6
    n_actions = 2
    start_position = 2
    terminal_position = 1
    top_position = 6
    big_reward = 1.0
    small_reward = 0.01
    right_success = 0.5

    def __init__(self) -> None:
        self._position = self.start_position
        self.visits = [0] * self.n_states
        self._done = True

    @staticmethod
    def agent_cell_index(state: int) -> int:
        return state

    def reset(self, rng: np.random.Generator) -> int:
        self._position = self.start_position
        self.visits = [0] * self.n_states
        self._done = False
        return self.start_position - 1

    def step(self, action: int, rng: np.random.Generator) -> StepOutcome:
        if self._done:
            raise RuntimeError("step() on a finished or unreset episode; call reset() first")
        if not 0 <= action < 2:
            raise ValueError(f"action {action} out of range for 2 actions")
        pos = self._position
        if action == RIGHT and rng.random() < self.right_success:
            pos = min(pos + 1, self.top_position)
        else:
            pos -= 1
        self._position = pos
        self.visits[pos - 1] += 1
        if pos == self.terminal_position:
            self._done = True
            reward = self.big_reward if self.visits[self.top_position - 1] else self.small_reward
            return StepOutcome(pos - 1, reward, True)
        return StepOutcome(pos - 1, 0.0, False)
