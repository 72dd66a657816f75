"""Goal-achievement checking.

A goal is the predicate <agent, reaches, target>; every goal has the
same subject and relation, so a goal is its target: the agent cell the
environment lists for it in goal_cells, named in goal_names. The check
reads cells only, so for the key-door task reaching the door counts
whether or not the key is held.

Critic is the internal critic of the two-level agent: a
HierarchicalAgent builds its own from the environment it is built for,
and nothing else in the package constructs one. Critic.reached is the
predicate; the agent pays the low level INTRINSIC_REWARD on a step that
satisfies it and nothing otherwise. Intrinsic reward never appears in
any extrinsic total.
"""
from __future__ import annotations

INTRINSIC_REWARD = 1.0


class Critic:
    """Checks goal predicates against post-step states.

    The check is pure: it depends only on the goal and the state passed
    in, never on episode history.
    """

    def __init__(self, env):
        self._targets = list(env.goal_cells)
        self._agent_index = env.agent_cell_index

    def reached(self, goal_id: int, s_after: int) -> bool:
        """Whether the post-step state s_after satisfies goal goal_id."""
        return self._agent_index(s_after) == self._targets[goal_id]
