"""A plain two-level agent, the oracle for HierarchicalAgent's fast loop.

It follows the learning loop of Kulkarni et al. (2016), Algorithm 1, as
plainly as Python allows and shares no code with hdqn.agents, hdqn.critic,
hdqn.replay or hdqn.values: both value tables and both replay rings are
Python lists, transitions are stored one at a time, and a minibatch
update is a loop. It draws from the same rng.stream keys as
HierarchicalAgent, in the same order, so two agents trained on one seed
agree bit for bit. The rules it spells out:

- Exploration: with probability epsilon a uniform choice, else the first
  of the best choices. An epsilon anneals linearly from 1 to its floor
  over its horizon. The meta level's clock counts joint-phase primitive
  steps, and its epsilon is 1 in pretraining. The controller's epsilon,
  fixed for an option, is the smaller of its anneal over all primitive
  steps and max(floor, 1 - the goal's success rate over its last
  `window` options), a goal with no options counting as rate 0.
- Transitions: a controller step stores (row * n_actions + a, row', the
  intrinsic reward 1 or 0, disc) with row = s * n_goals + g and row' =
  s' * n_goals + g; an option stores (s0 * n_goals + g, s_end, F, disc),
  F the undiscounted sum of the option's extrinsic rewards. disc is 0.0
  where the transition ended its episode (or, for the controller, reached
  its goal), else gamma.
- Replay: a ring of `capacity` positions, overwritten oldest first. A
  minibatch of k takes the next k of a block of uniforms drawn from the
  ring's stream 4096 at a time (replay.UNIFORM_BLOCK), and position
  floor(u * fill) for each.
- Update: both levels train once per primitive step, each once its ring
  holds its warm-up's worth. Every delta r + disc * max Q(row') - Q(cell)
  comes from the table as it was before the batch; then each cell adds
  alpha * delta in batch order.
"""
from __future__ import annotations

from hdqn import rng

UNIFORMS_PER_DRAW = 4096


class Ring:
    """Replay memory: `rows` holds (cell, row', r, disc) by ring position."""

    def __init__(self, capacity: int, gen):
        self.capacity = capacity
        self.gen = gen
        self.rows = []
        self.cursor = 0
        self.uniforms = []
        self.used = 0

    def push(self, transition: tuple) -> None:
        if len(self.rows) < self.capacity:
            self.rows.append(transition)
        else:
            self.rows[self.cursor] = transition
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, k: int) -> list:
        if self.used + k > len(self.uniforms):
            self.uniforms = self.gen.random(max(UNIFORMS_PER_DRAW, k)).tolist()
            self.used = 0
        draws = self.uniforms[self.used : self.used + k]
        self.used += k
        return [self.rows[int(u * len(self.rows))] for u in draws]


def choose(values: list, epsilon: float, gen) -> int:
    if gen.random() < epsilon:
        return int(gen.integers(len(values)))
    best = 0
    for c in range(1, len(values)):
        if values[c] > values[best]:
            best = c
    return best


def anneal(floor: float, horizon: int, t: int) -> float:
    if t >= horizon:
        return floor
    return 1.0 - (1.0 - floor) * (t / horizon)


def train(table: list, batch: list, alpha: float) -> None:
    n_choices = len(table[0])
    deltas = []
    for cell, row_next, r, disc in batch:
        row, a = divmod(cell, n_choices)
        best = table[row_next][0]
        for v in table[row_next]:
            if v > best:
                best = v
        deltas.append((row, a, best * disc + r - table[row][a]))
    for row, a, delta in deltas:
        table[row][a] += alpha * delta


class ReferenceAgent:
    def __init__(
        self,
        env,
        *,
        seed: int,
        learning_rate: float,
        gamma: float,
        d1_capacity: int,
        d2_capacity: int,
        d1_warmup: int,
        d2_warmup: int,
        batch_size: int,
        floor: float,
        eps1_horizon: int,
        eps2_horizon: int,
        tracker_window: int,
    ):
        self.env = env
        self.n_goals = len(env.goal_names)
        self.q1 = [[0.0] * env.n_actions for _ in range(env.n_states * self.n_goals)]
        self.q2 = [[0.0] * self.n_goals for _ in range(env.n_states)]
        self.d1 = Ring(d1_capacity, rng.stream(seed, rng.REPLAY_D1))
        self.d2 = Ring(d2_capacity, rng.stream(seed, rng.REPLAY_D2))
        self.ctrl_gen = rng.stream(seed, rng.CONTROLLER)
        self.meta_gen = rng.stream(seed, rng.META)
        self.outcomes = [[] for _ in range(self.n_goals)]  # each goal's last options
        self.alpha, self.gamma = learning_rate, gamma
        self.d1_warmup, self.d2_warmup, self.batch_size = d1_warmup, d2_warmup, batch_size
        self.floor, self.eps1_horizon, self.eps2_horizon = floor, eps1_horizon, eps2_horizon
        self.window = tracker_window
        self.primitive_steps = 0
        self.joint_steps = 0
        self.completed_options = 0

    def controller_epsilon(self, g: int) -> float:
        seen = self.outcomes[g]
        rate = sum(seen) / len(seen) if seen else 0.0
        return min(
            anneal(self.floor, self.eps1_horizon, self.primitive_steps),
            max(self.floor, 1.0 - rate),
        )

    def run_episode(self, env_gen, phase: str) -> tuple:
        """One training episode; returns (total reward, steps, goal picks,
        goal successes)."""
        env, n_goals, gamma = self.env, self.n_goals, self.gamma
        joint = phase == "joint"
        total, steps, picks, successes = 0.0, 0, [], []
        s = env.reset(env_gen)
        done = False
        while not done:
            eps2 = anneal(self.floor, self.eps2_horizon, self.joint_steps) if joint else 1.0
            g = choose(self.q2[s], eps2, self.meta_gen)
            picks.append(g)
            s0, f, reached = s, 0.0, False
            eps1 = self.controller_epsilon(g)
            while not (done or reached):
                row = s * n_goals + g
                a = choose(self.q1[row], eps1, self.ctrl_gen)
                s, r, done = env.step(a, env_gen)
                self.primitive_steps += 1
                if joint:
                    self.joint_steps += 1
                reached = env.agent_cell_index(s) == env.goal_cells[g]
                self.d1.push(
                    (
                        row * env.n_actions + a,
                        s * n_goals + g,
                        1.0 if reached else 0.0,
                        0.0 if done or reached else gamma,
                    )
                )
                f += r
                total += r
                steps += 1
                if len(self.d1.rows) >= self.d1_warmup:
                    train(self.q1, self.d1.sample(self.batch_size), self.alpha)
                if len(self.d2.rows) >= self.d2_warmup:
                    train(self.q2, self.d2.sample(self.batch_size), self.alpha)
            self.d2.push((s0 * n_goals + g, s, f, 0.0 if done else gamma))
            self.completed_options += 1
            self.outcomes[g] = (self.outcomes[g] + [reached])[-self.window :]
            successes.append(reached)
        return total, steps, picks, successes
