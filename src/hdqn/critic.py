"""Goal-achievement checking, as a table over controller rows.

A goal is the predicate <agent, reaches, target>; every goal has the
same subject and relation, so a goal is its target: the agent cell the
environment lists for it in goal_cells, named in goal_names. The check
reads cells only, so for the key-door task reaching the door counts
whether or not the key is held.

Critic is the internal critic of the two-level agent: a
HierarchicalAgent builds its own from the environment it is built for,
and nothing else in the package constructs one. Whether goal g is
reached in state s is a fixed fact of the controller row s * n_goals +
g, so the critic decides every row once, into hits; the agent reads the
byte of each row it steps into and pays the low level INTRINSIC_REWARD
where it is 1. Intrinsic reward never appears in any extrinsic total.
"""
from __future__ import annotations

import numpy as np

INTRINSIC_REWARD = 1.0


class Critic:
    """hits[s * n_goals + g] is 1 where the agent's cell in state s is
    goal g's cell, else 0: n_states * n_goals bytes, 10,368 for the
    shipped key-door room. No entry depends on episode history.
    """

    def __init__(self, env):
        cells = np.array(list(map(env.agent_cell_index, range(env.n_states))))
        self.n_goals = len(env.goal_cells)
        self.hits = (cells[:, None] == np.array(env.goal_cells)).tobytes()

    def reached(self, goal_id: int, s_after: int) -> bool:
        """Whether the post-step state s_after satisfies goal goal_id."""
        return self.hits[s_after * self.n_goals + goal_id] == 1
