"""The two-level agent.

An agent is built for one environment, which lists its goals, and owns
its internal critic, which it builds from that environment: the critic
judges, after every primitive step, whether the current goal has been
reached. A meta level picks a goal from the current state with
epsilon-greedy exploration over its own value function; the low level
then picks primitive actions, paid a unit reward when the critic says
the goal is reached. The option ends when the goal is reached or the
episode terminates. Environment rewards collected while an option runs
are summed undiscounted into F and credited to the goal choice as one
meta-scale transition; discounting enters only through the bootstrap.

The agent indexes both value functions by row, one index per input:
the controller's row is state * n_goals + goal and the meta level's row
is the state. It forms the controller row when an option starts and
carries the next row forward from step to step; estimators never see
the goal axis except as part of a row.

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
run_episode looks up everything it calls per step once per episode
(the bound env.step, values, train_on, push and sample, the meta
schedule's value, the warm-ups, the batch size and whether a backend
syncs a target) and builds the EpisodeTrace from local tallies at the end.
Exploration at both levels is annealed 1 -> 0.1 on shared step clocks:
the low level takes the smaller of a linear schedule (clock: primitive
steps, all phases) and a per-goal rate derived from the tracker, so a
goal mastered early anneals ahead of schedule but never lags behind it.
Meta exploration follows its own linear schedule on a clock counting
joint-phase primitive steps; in the pretrain phase it is pinned at 1 and
the clock does not advance.
"""
from __future__ import annotations

import numpy as np

from hdqn import rng
from hdqn.agents.exploration import EpsilonSchedule, GoalSuccessTracker, eps_greedy
from hdqn.agents.trace import EpisodeTrace
from hdqn.critic import INTRINSIC_REWARD, Critic
from hdqn.replay import ReplayBuffer
from hdqn.values import MlpQ, TabularQ

PHASES = ("pretrain", "joint")


def make_estimator(
    backend: str,
    n_states: int,
    n_choices: int,
    n_goals: int | None,
    learning_rate: float,
    hidden: int,
    init_rng: np.random.Generator,
):
    if backend == "tabular":
        return TabularQ(n_states, n_choices, n_goals=n_goals, learning_rate=learning_rate)
    if backend == "mlp":
        return MlpQ(
            n_states,
            n_choices,
            n_goals=n_goals,
            hidden=hidden,
            learning_rate=learning_rate,
            init_rng=init_rng,
        )
    raise ValueError(f"unknown value-function backend {backend!r}")


class HierarchicalAgent:
    kind = "hdqn"

    def __init__(
        self,
        env,
        *,
        seed: int = 0,
        backend: str = "tabular",
        learning_rate: float = 0.00025,
        gamma: float = 0.99,
        d1_capacity: int = 100_000,
        d2_capacity: int = 100_000,
        d1_warmup: int = 100,
        d2_warmup: int = 100,
        batch_size: int = 32,
        eps1: EpsilonSchedule | None = None,
        eps2: EpsilonSchedule | None = None,
        eps1_floor: float = 0.1,
        tracker_window: int = 100,
        hidden: int = 64,
        target_sync: int = 1000,
        estimators: tuple | None = None,
    ):
        """An agent for env: its critic, goals and every dimension come
        from env. estimators, when given, is a prebuilt (q1, q2) pair used in
        place of fresh ones; backend, learning_rate and hidden are then unused."""
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if d1_warmup < 1 or d2_warmup < 1:
            raise ValueError("warm-up thresholds must be >= 1")
        if target_sync < 1:
            raise ValueError(f"target_sync must be >= 1, got {target_sync}")
        self.env = env
        self.critic = Critic(env)
        self.goal_names = env.goal_names
        self.n_states = n_states = env.n_states
        self.n_actions = n_actions = env.n_actions
        self.n_goals = n_goals = len(env.goal_names)
        self.seed = seed
        self.gamma = gamma
        self.batch_size = batch_size
        self.d1_warmup = d1_warmup
        self.d2_warmup = d2_warmup
        self.target_sync = target_sync
        self.eps1 = eps1 if eps1 is not None else EpsilonSchedule()
        self.eps2 = eps2 if eps2 is not None else EpsilonSchedule()

        if estimators is None:
            init_gen = rng.stream(seed, rng.INIT)
            estimators = (
                make_estimator(
                    backend, n_states, n_actions, n_goals, learning_rate, hidden, init_gen
                ),
                make_estimator(
                    backend, n_states, n_goals, None, learning_rate, hidden, init_gen
                ),
            )
        self.q1, self.q2 = estimators
        self.backend = self.q1.kind
        self.d1 = ReplayBuffer(d1_capacity, rng.stream(seed, rng.REPLAY_D1))
        self.d2 = ReplayBuffer(d2_capacity, rng.stream(seed, rng.REPLAY_D2))
        self.tracker = GoalSuccessTracker(n_goals, window=tracker_window, floor=eps1_floor)
        self._ctrl_gen = rng.stream(seed, rng.CONTROLLER)
        self._meta_gen = rng.stream(seed, rng.META)

        self.primitive_steps = 0
        self.joint_steps = 0  # the meta anneal clock
        self.meta_decisions = 0
        self.completed_options = 0

    def controller_epsilon(self, goal: int) -> float:
        """Schedule-bounded adaptive exploration rate for one goal."""
        return min(self.eps1.value(self.primitive_steps), self.tracker.epsilon(goal))

    def run_episode(
        self,
        env_gen: np.random.Generator,
        count_visits: bool = False,
        phase: str = "joint",
    ) -> EpisodeTrace:
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
        joint = phase == "joint"
        env_step = self.env.step
        q1, q2 = self.q1, self.q2
        d1, d2 = self.d1, self.d2
        q1_values, q2_values = q1.values, q2.values
        q1_train, q2_train = q1.train_on, q2.train_on
        d1_push, d2_push = d1.push, d2.push
        d1_sample, d2_sample = d1.sample, d2.sample
        d1_warmup, d2_warmup = self.d1_warmup, self.d2_warmup
        batch_size = self.batch_size
        # Only a network keeps a frozen target, synced every target_sync steps.
        q1_syncs, q2_syncs = q1.kind == "mlp", q2.kind == "mlp"
        target_sync = self.target_sync
        eps2_value = self.eps2.value
        tracker = self.tracker
        ctrl_gen, meta_gen = self._ctrl_gen, self._meta_gen
        n_actions, n_goals = self.n_actions, self.n_goals
        reached_check = self.critic.reached
        gamma = self.gamma

        s = self.env.reset(env_gen)
        visits = [0] * self.n_states if count_visits else None
        goal_picks, goal_successes = [], []
        total_reward = 0.0
        steps = 0
        done = False
        while not done:
            eps2 = eps2_value(self.joint_steps) if joint else 1.0
            self.meta_decisions += 1
            g = eps_greedy(q2_values(s), n_goals, eps2, meta_gen)
            goal_picks.append(g)
            s0 = s
            row = s * n_goals + g
            option_return = 0.0
            reached = False
            eps1 = self.controller_epsilon(g)  # constant within the option
            while not (done or reached):
                a = eps_greedy(q1_values(row), n_actions, eps1, ctrl_gen)
                s, r, done = env_step(a, env_gen)
                self.primitive_steps += 1
                if joint:
                    self.joint_steps += 1
                reached = reached_check(g, s)
                row_next = s * n_goals + g
                d1_push(
                    row * n_actions + a,
                    row_next,
                    INTRINSIC_REWARD if reached else 0.0,
                    0.0 if done or reached else gamma,
                )
                option_return += r
                total_reward += r
                steps += 1
                if visits is not None:
                    visits[s] += 1
                # Both levels learn once per primitive step, each from its
                # own memory once that holds its warm-up's worth.
                if len(d1) >= d1_warmup:
                    q1_train(d1_sample(batch_size))
                    if q1_syncs and q1.train_steps % target_sync == 0:
                        q1.sync_target()
                if len(d2) >= d2_warmup:
                    q2_train(d2_sample(batch_size))
                    if q2_syncs and q2.train_steps % target_sync == 0:
                        q2.sync_target()
                row = row_next
            d2_push(s0 * n_goals + g, s, option_return, 0.0 if done else gamma)
            self.completed_options += 1
            tracker.record(g, reached)
            goal_successes.append(reached)
        return EpisodeTrace(total_reward, steps, visits, goal_picks, goal_successes)

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
        reached_check = self.critic.reached
        s = env.reset(env_gen)
        trace = EpisodeTrace()
        done = False
        while not done:
            g = eps_greedy(q2.values(s), n_goals, epsilon, pick_gen)
            trace.goal_picks.append(g)
            reached = False
            while not (done or reached):
                a = eps_greedy(q1.values(s * n_goals + g), self.n_actions, epsilon, pick_gen)
                s, r, done = env.step(a, env_gen)
                reached = reached_check(g, s)
                trace.total_reward += r
                trace.steps += 1
            trace.goal_successes.append(reached)
        return trace
