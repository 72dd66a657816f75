"""Flat epsilon-greedy Q-learning over the observed state, no goals.

The comparison baseline: one table over (state, action), online backups
on every step (no replay), exploration annealed on a primitive-step
clock. On the chain task this agent sees only the position, so the
history-dependent payoff is invisible to it by design.

The table is nested Python lists and the backup is written inline: one
scalar update per step is where lists beat ndarray scalar access, and
TabularQ's batch path would cost more than it saves. The rule is
TabularQ.backup's, and a test holds the two equal.

run_episode reads every per-step attribute once per episode (the bound
env.step, the schedule's value, the table and the learning constants)
and keeps the step clock and the episode's tallies in locals. It writes
the clock back and builds the EpisodeTrace when the episode ends. The
env, not the loop, records which states an episode entered.
"""
from __future__ import annotations

import numpy as np

from hdqn import rng
from hdqn.agents.exploration import EpsilonSchedule, eps_greedy
from hdqn.agents.trace import EpisodeTrace


class FlatQAgent:
    kind = "flat"
    goal_names = ()

    def __init__(
        self,
        env,
        *,
        seed: int = 0,
        learning_rate: float = 0.00025,
        gamma: float = 0.99,
        eps: EpsilonSchedule = EpsilonSchedule(),
    ):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self.env = env
        self.n_states = n_states = env.n_states
        self.n_actions = n_actions = env.n_actions
        self.gamma = gamma
        self.eps = eps
        self.learning_rate = learning_rate
        self.table = [[0.0] * n_actions for _ in range(n_states)]
        self._act_gen = rng.stream(seed, rng.CONTROLLER)
        self.primitive_steps = 0

    def run_episode(self, env_gen: np.random.Generator) -> EpisodeTrace:
        env_step = self.env.step
        eps_value = self.eps.value
        table = self.table
        alpha = self.learning_rate
        gamma = self.gamma
        act_gen = self._act_gen
        n_actions = self.n_actions
        t = self.primitive_steps
        total_reward = 0.0
        steps = 0
        s = self.env.reset(env_gen)
        done = False
        while not done:
            cell = table[s]
            a = eps_greedy(cell, n_actions, eps_value(t), act_gen)
            s_next, r, done = env_step(a, env_gen)
            t += 1
            if done:
                target = r
            else:
                row = table[s_next]
                m = row[0]
                for v in row:
                    if v > m:
                        m = v
                target = r + gamma * m
            cur = cell[a]
            cell[a] = cur + alpha * (target - cur)
            total_reward += r
            steps += 1
            s = s_next
        self.primitive_steps = t
        return EpisodeTrace(total_reward, steps)

    def eval_episode(
        self,
        epsilon: float,
        env_gen: np.random.Generator,
        pick_gen: np.random.Generator,
    ) -> EpisodeTrace:
        """Frozen-policy rollout; no learning."""
        env = self.env
        s = env.reset(env_gen)
        trace = EpisodeTrace()
        done = False
        while not done:
            a = eps_greedy(self.table[s], self.n_actions, epsilon, pick_gen)
            s, r, done = env.step(a, env_gen)
            trace.total_reward += r
            trace.steps += 1
        return trace
