"""The two-level agent.

A meta level picks a goal from the current state with epsilon-greedy
exploration over its own value function; the low level then picks
primitive actions, paid a unit reward by the critic when the goal
predicate is satisfied. The option ends when the goal is reached or the
episode terminates. Environment rewards collected while an option runs
are summed undiscounted into F and credited to the goal choice as one
meta-scale transition; discounting enters only through the bootstrap.

Both levels train from their own replay memory once per primitive step.
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
from hdqn.critic import INTRINSIC_REWARD
from hdqn.replay import ControllerTransition, MetaTransition, ReplayBuffer
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
    def __init__(
        self,
        n_states: int,
        n_actions: int,
        n_goals: int,
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
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if d1_warmup < 1 or d2_warmup < 1:
            raise ValueError("warm-up thresholds must be >= 1")
        if target_sync < 1:
            raise ValueError(f"target_sync must be >= 1, got {target_sync}")
        self.n_states = n_states
        self.n_actions = n_actions
        self.n_goals = n_goals
        self.seed = seed
        self.backend = backend
        self.gamma = gamma
        self.batch_size = batch_size
        self.d1_warmup = d1_warmup
        self.d2_warmup = d2_warmup
        self.target_sync = target_sync
        self.eps1 = eps1 if eps1 is not None else EpsilonSchedule()
        self.eps2 = eps2 if eps2 is not None else EpsilonSchedule()

        init_gen = rng.stream(seed, rng.INIT)
        self.q1 = make_estimator(
            backend, n_states, n_actions, n_goals, learning_rate, hidden, init_gen
        )
        self.q2 = make_estimator(
            backend, n_states, n_goals, None, learning_rate, hidden, init_gen
        )
        self.d1 = ReplayBuffer(d1_capacity)
        self.d2 = ReplayBuffer(d2_capacity)
        self.tracker = GoalSuccessTracker(n_goals, window=tracker_window, floor=eps1_floor)
        self._ctrl_gen = rng.stream(seed, rng.CONTROLLER)
        self._meta_gen = rng.stream(seed, rng.META)
        self._d1_gen = rng.stream(seed, rng.REPLAY_D1)
        self._d2_gen = rng.stream(seed, rng.REPLAY_D2)

        self.primitive_steps = 0
        self.joint_steps = 0  # the meta anneal clock
        self.meta_decisions = 0
        self.completed_options = 0

    def controller_epsilon(self, goal: int) -> float:
        """Schedule-bounded adaptive exploration rate for one goal."""
        return min(self.eps1.value(self.primitive_steps), self.tracker.epsilon(goal))

    def _update(self, vf, buffer, warmup, gen) -> None:
        if len(buffer) < warmup:
            return
        vf.train_on(buffer.sample(self.batch_size, gen), self.gamma)
        if vf.kind == "mlp" and vf.train_steps % self.target_sync == 0:
            vf.sync_target()

    def run_episode(
        self,
        env,
        critic,
        phase: str,
        env_gen: np.random.Generator,
        count_visits: bool = False,
    ) -> EpisodeTrace:
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
        joint = phase == "joint"
        q1, q2 = self.q1, self.q2
        d1, d2 = self.d1, self.d2
        tracker = self.tracker
        ctrl_gen, meta_gen = self._ctrl_gen, self._meta_gen
        n_actions, n_goals = self.n_actions, self.n_goals
        reached_check = critic.reached

        s = env.reset(env_gen)
        visits = [0] * self.n_states if count_visits else None
        trace = EpisodeTrace(state_visits=visits)
        done = False
        while not done:
            eps2 = self.eps2.value(self.joint_steps) if joint else 1.0
            self.meta_decisions += 1
            g = eps_greedy(q2.values(s), n_goals, eps2, meta_gen)
            trace.goal_picks.append(g)
            s0 = s
            option_return = 0.0
            reached = False
            eps1 = self.controller_epsilon(g)  # constant within the option
            while not (done or reached):
                a = eps_greedy(q1.values(s, g), n_actions, eps1, ctrl_gen)
                s_next, r, done = env.step(a, env_gen)
                self.primitive_steps += 1
                if joint:
                    self.joint_steps += 1
                reached = reached_check(g, s_next)
                d1.push(
                    ControllerTransition(
                        s,
                        g,
                        a,
                        INTRINSIC_REWARD if reached else 0.0,
                        s_next,
                        done or reached,
                    )
                )
                option_return += r
                trace.total_reward += r
                trace.steps += 1
                if visits is not None:
                    visits[s_next] += 1
                self._update(q1, d1, self.d1_warmup, self._d1_gen)
                self._update(q2, d2, self.d2_warmup, self._d2_gen)
                s = s_next
            d2.push(MetaTransition(s0, g, option_return, s, done))
            self.completed_options += 1
            tracker.record(g, reached)
            trace.goal_successes.append(reached)
        return trace

    def eval_episode(
        self,
        env,
        critic,
        epsilon: float,
        env_gen: np.random.Generator,
        pick_gen: np.random.Generator,
        count_visits: bool = False,
    ) -> EpisodeTrace:
        """Frozen-policy rollout: no learning, no memory or tracker writes."""
        q1, q2 = self.q1, self.q2
        s = env.reset(env_gen)
        visits = [0] * self.n_states if count_visits else None
        trace = EpisodeTrace(state_visits=visits)
        done = False
        while not done:
            g = eps_greedy(q2.values(s), self.n_goals, epsilon, pick_gen)
            trace.goal_picks.append(g)
            reached = False
            while not (done or reached):
                a = eps_greedy(q1.values(s, g), self.n_actions, epsilon, pick_gen)
                s, r, done = env.step(a, env_gen)
                reached = critic.reached(g, s)
                trace.total_reward += r
                trace.steps += 1
                if visits is not None:
                    visits[s] += 1
            trace.goal_successes.append(reached)
        return trace
