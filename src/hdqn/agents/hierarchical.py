"""The two-level agent.

An agent is built for one environment, which lists its goals, and owns
its internal critic, which it builds from that environment: after every
primitive step the agent reads the critic's byte for the row it steps
into, which says whether the current goal has been reached. A meta
level picks a goal from the current state with epsilon-greedy
exploration over its own value function; the low level then picks
primitive actions, paid a unit reward when that byte is 1. The option
ends when the goal is reached or the episode terminates. Environment rewards collected while an option runs
are summed undiscounted into F and credited to the goal choice as one
meta-scale transition; discounting enters only through the bootstrap.

The agent is built around the two value functions it is given, q1 for
the controller and q2 for the meta level; harness.build_agent makes
them with values.make_estimator. It indexes both by row, one index per
input: the controller's row is state * n_goals + goal and the meta
level's row is the state. It forms the controller row when an option
starts and carries the next row forward from step to step; estimators
never see the goal axis except as part of a row.

Replay stores each transition as the four columns the update reads,
(cell, row', r, disc) (replay.py). The agent forms them when it pushes,
where it already knows how the transition ended. A controller step
stores cell row * n_actions + a, row' at the next state with the same
goal, the intrinsic reward, and disc 0.0 when the goal was reached or
the episode ended, else gamma. An option stores cell s0 * n_goals + g,
row' the state it ended in, F, and disc 0.0 when the episode ended,
else gamma.

Both levels train from their own replay memory once per primitive step:
one minibatch of columns per level, through the estimator's train_on.
run_episode looks up everything it uses per step once per episode
(the bound env.step, values, train_on, push and sample, the meta
schedule's value, the critic's hits and the warm-ups) and builds the
EpisodeTrace from local tallies at the end. A network syncs its own
target inside train_on (values.py), so the loop is the same for both
backends. The loop reads each warm-up only where it can change: d1's
is a flag that stays set once d1 holds its warm-up's worth, since
memories never shrink, and d2's is read once per option, since d2 grows
only when an option ends. The step clocks below are advanced by each
option's steps when it ends, since nothing reads them within an option.
Exploration at both levels anneals from 1 to a floor on shared step
clocks: the low level takes the smaller of eps1 (clock: primitive steps,
all phases) and a per-goal rate from the tracker, floored at eps1's
floor, so a goal mastered early anneals ahead of schedule but never lags
behind it. Meta exploration follows eps2 on a clock counting joint-phase
primitive steps; in the pretrain phase it is pinned at 1 and the clock
does not advance. completed_options counts options, one per meta choice.
"""
from __future__ import annotations

import numpy as np

from hdqn import rng
from hdqn.agents.exploration import EpsilonSchedule, GoalSuccessTracker, eps_greedy
from hdqn.agents.trace import EpisodeTrace
from hdqn.critic import INTRINSIC_REWARD, Critic
from hdqn.replay import ReplayBuffer

PHASES = ("pretrain", "joint")


class HierarchicalAgent:
    kind = "hdqn"

    def __init__(
        self,
        env,
        q1,
        q2,
        *,
        seed: int = 0,
        gamma: float = 0.99,
        d1_capacity: int = 100_000,
        d2_capacity: int = 100_000,
        d1_warmup: int = 100,
        d2_warmup: int = 100,
        batch_size: int = 32,
        eps1: EpsilonSchedule = EpsilonSchedule(),
        eps2: EpsilonSchedule = EpsilonSchedule(),
        tracker_window: int = 100,
    ):
        """An agent for env around its two value functions: q1, the
        controller's, over n_states * n_goals rows and the env's actions,
        and q2, the meta level's, over n_states rows and the goals. Its
        critic, goals and every other dimension come from env."""
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if d1_warmup < 1 or d2_warmup < 1:
            raise ValueError("warm-up thresholds must be >= 1")
        if d1_warmup > d1_capacity or d2_warmup > d2_capacity:
            raise ValueError("a warm-up threshold above its replay capacity is never reached")
        self.env = env
        self.critic = Critic(env)
        self.goal_names = env.goal_names
        self.n_goals = n_goals = len(env.goal_names)
        self.gamma = gamma
        self.d1_warmup = d1_warmup
        self.d2_warmup = d2_warmup
        self.eps1, self.eps2 = eps1, eps2  # frozen, so a shared default is safe
        self.q1, self.q2 = q1, q2
        self.d1 = ReplayBuffer(d1_capacity, batch_size, rng.stream(seed, rng.REPLAY_D1))
        self.d2 = ReplayBuffer(d2_capacity, batch_size, rng.stream(seed, rng.REPLAY_D2))
        self.tracker = GoalSuccessTracker(n_goals, window=tracker_window)
        self._ctrl_gen = rng.draws(seed, rng.CONTROLLER)
        self._meta_gen = rng.draws(seed, rng.META)

        self.primitive_steps = 0
        self.joint_steps = 0  # the meta anneal clock
        self.completed_options = 0

    def controller_epsilon(self, goal: int) -> float:
        """Schedule-bounded adaptive exploration rate for one goal."""
        eps1, rate = self.eps1, self.tracker.success_rate(goal)
        return min(eps1.value(self.primitive_steps), max(eps1.floor, 1.0 - rate))

    def run_episode(
        self, env_gen: np.random.Generator | rng.Draws, phase: str = "joint"
    ) -> EpisodeTrace:
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
        joint = phase == "joint"
        env_step = self.env.step
        d1, d2 = self.d1, self.d2
        q1_values, q2_values = self.q1.values, self.q2.values
        q1_train, q2_train = self.q1.train_on, self.q2.train_on
        d1_push, d2_push = d1.push, d2.push
        d1_sample, d2_sample = d1.sample, d2.sample
        d1_warmup, d2_warmup = self.d1_warmup, self.d2_warmup
        eps2_value = self.eps2.value
        tracker = self.tracker
        ctrl_gen, meta_gen = self._ctrl_gen, self._meta_gen
        n_actions, n_goals = self.env.n_actions, self.n_goals
        hits = self.critic.hits
        gamma = self.gamma

        s = self.env.reset()
        goal_picks, goal_successes = [], []
        total_reward = 0.0
        steps = 0
        done = False
        # d1 never shrinks, so once it holds its warm-up it always will.
        d1_warm = len(d1) >= d1_warmup
        while not done:
            eps2 = eps2_value(self.joint_steps) if joint else 1.0
            g = eps_greedy(q2_values(s), eps2, meta_gen)
            goal_picks.append(g)
            s0 = s
            row = s * n_goals + g
            option_return = 0.0
            reached = False
            eps1 = self.controller_epsilon(g)  # constant within the option
            # d2 grows only when an option ends, so within one its warm-up
            # reads the same at every step.
            d2_warm = len(d2) >= d2_warmup
            option_start = steps
            while not (done or reached):
                a = eps_greedy(q1_values(row), eps1, ctrl_gen)
                s, r, done = env_step(a, env_gen)
                row_next = s * n_goals + g
                reached = hits[row_next]
                d1_push(
                    row * n_actions + a,
                    row_next,
                    INTRINSIC_REWARD if reached else 0.0,
                    0.0 if done or reached else gamma,
                )
                option_return += r
                total_reward += r
                steps += 1
                # Both levels learn once per primitive step, each from its
                # own memory once that holds its warm-up's worth.
                if d1_warm or len(d1) >= d1_warmup:
                    d1_warm = True
                    q1_train(d1_sample())
                if d2_warm:
                    q2_train(d2_sample())
                row = row_next
            # Nothing reads the step clocks within an option.
            self.primitive_steps += steps - option_start
            if joint:
                self.joint_steps += steps - option_start
            d2_push(s0 * n_goals + g, s, option_return, 0.0 if done else gamma)
            self.completed_options += 1
            tracker.record(g, reached)
            goal_successes.append(reached)
        return EpisodeTrace(total_reward, steps, goal_picks, goal_successes)

    def eval_episode(
        self,
        epsilon: float,
        env_gen: np.random.Generator,
        pick_gen: np.random.Generator,
    ) -> EpisodeTrace:
        """Frozen-policy rollout: no learning, no memory or tracker writes."""
        env = self.env
        q1, q2 = self.q1, self.q2
        n_goals = self.n_goals
        hits = self.critic.hits
        s = env.reset()
        trace = EpisodeTrace(goal_picks=[], goal_successes=[])
        done = False
        while not done:
            g = eps_greedy(q2.values(s), epsilon, pick_gen)
            trace.goal_picks.append(g)
            reached = False
            while not (done or reached):
                a = eps_greedy(q1.values(s * n_goals + g), epsilon, pick_gen)
                s, r, done = env.step(a, env_gen)
                reached = hits[s * n_goals + g]
                trace.total_reward += r
                trace.steps += 1
            trace.goal_successes.append(reached)
        return trace
