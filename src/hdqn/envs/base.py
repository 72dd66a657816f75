"""Environment contract shared by the tasks and both agents."""
from __future__ import annotations

import numpy as np


class Environment:
    """Discrete episodic environment with enumerated states and actions.

    State ids are integers in [0, n_states), action ids in
    [0, n_actions). An instance holds the state of one episode at a
    time: call reset() before the first step and after every terminal
    step. reset() draws nothing: every episode starts in the same state.
    step(action, rng) returns a plain (next_state, reward, terminal)
    tuple of int, float and bool, raises RuntimeError on a terminal or
    unreset episode and ValueError on an action outside [0, n_actions).
    Instances are not thread-safe; parallel runs use independently
    seeded copies.

    An environment describes itself, so nothing else tells the tasks
    apart: its name (the config's env), goal_names in goal-id order (ids
    index value functions, so the order is part of the reproducibility
    contract), goal_cells, the agent cell each goal targets, and
    agent_cell_index(state), the agent's cell in a state: goal g is
    reached in s when agent_cell_index(s) == goal_cells[g].
    make_env(name, layout_text, step_limit) rebuilds an equal
    environment, so a checkpoint records those three.
    """

    name: str
    n_states: int
    n_actions: int
    goal_names: tuple
    goal_cells: tuple
    layout_text: str
    step_limit: int

    def reset(self) -> int:
        """Start a new episode and return the initial state id."""
        raise NotImplementedError

    def step(self, action: int, rng: np.random.Generator) -> tuple[int, float, bool]:
        """Apply one primitive action to the live episode. rng needs only
        random() and integers(n), so training passes an rng.Draws."""
        raise NotImplementedError

    def agent_cell_index(self, state: int) -> int:
        """The agent's cell in state."""
        raise NotImplementedError
