"""Goal space and goal-achievement checking.

A goal is the predicate <agent, reaches, target>; every goal has the
same subject and relation, so a GoalSpec records only the target. For
the chain task every observed state is a target; for the key-door task
the targets are the four non-hazard entities (key, door, both ladders),
checked purely on cell configuration: reaching the door counts whether
or not the key is held.

Critic is the internal critic of the two-level agent: a
HierarchicalAgent builds its own from the environment it is built for,
and nothing else in the package constructs one. Critic.reached is the
predicate; the agent pays the low level INTRINSIC_REWARD on a step that
satisfies it and nothing otherwise. Intrinsic reward never appears in
any extrinsic total.
"""
from __future__ import annotations

from typing import NamedTuple

from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv

INTRINSIC_REWARD = 1.0

KEYDOOR_GOAL_KINDS = ("key", "door", "ladder_bl", "ladder_br")


class GoalSpec(NamedTuple):
    goal_id: int
    target: "int | str"  # chain: target state id; key-door: entity kind
    name: str


def goal_set(env) -> list[GoalSpec]:
    """The fixed, ordered goal list for an environment.

    Goal ids index value functions, so the ordering here is part of the
    reproducibility contract.
    """
    if isinstance(env, ChainEnv):
        return [GoalSpec(i, i, f"s{i + 1}") for i in range(env.n_states)]
    if isinstance(env, KeyDoorEnv):
        return [GoalSpec(i, kind, kind) for i, kind in enumerate(KEYDOOR_GOAL_KINDS)]
    raise TypeError(f"no goal set defined for {type(env).__name__}")


class Critic:
    """Checks goal predicates against post-step states.

    The check is pure: it depends only on the goal and the state passed
    in, never on episode history.
    """

    def __init__(self, env):
        self.goals = goal_set(env)
        if isinstance(env, ChainEnv):
            self._targets = [g.target for g in self.goals]
            self._agent_index = lambda s: s
        else:
            # Layout fields are named after the goal kinds.
            lay = env.layout
            self._targets = [
                y * lay.width + x for x, y in (getattr(lay, k) for k in KEYDOOR_GOAL_KINDS)
            ]
            self._agent_index = env.agent_cell_index

    @property
    def n_goals(self) -> int:
        return len(self.goals)

    def reached(self, goal_id: int, s_after: int) -> bool:
        """Whether the post-step state s_after satisfies goal goal_id."""
        return self._agent_index(s_after) == self._targets[goal_id]

