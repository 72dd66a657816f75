"""Multi-seed experiment driver.

One seed = one independent agent, environment, and RNG stream family.
build_agent is the only place that tells the agent kinds apart. Each
agent is built for its environment (the hierarchical one builds its own
critic from it), and both run and evaluate episodes through the same
signatures, so run_seed and evaluate_policy drive either kind alike.

Training logs raw per-episode tallies; windowed metric columns and CSVs
are derived afterwards so identical runs produce identical bytes. While
a seed trains, run_seed writes about ten progress lines per phase on
stderr. Seeds run in worker processes when more than one CPU is
available, with a single-threaded reduce for the aggregate files.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from hdqn import metrics, rng
from hdqn.agents import EpsilonSchedule, FlatQAgent, HierarchicalAgent
from hdqn.checkpoint import dump_agent
from hdqn.config import ExperimentConfig
from hdqn.envs import make_env
from hdqn.errors import ConfigError, DivergenceError
from hdqn.values import make_estimator


def build_env(cfg: ExperimentConfig):
    return make_env(cfg.env, cfg.layout, cfg.step_limit)


def build_agent(cfg: ExperimentConfig, seed: int, env):
    if cfg.agent == "flat":
        return FlatQAgent(
            env,
            seed=seed,
            learning_rate=cfg.learning_rate,
            gamma=cfg.gamma,
            eps=EpsilonSchedule(cfg.eps_floor, cfg.eps1_horizon),
        )
    n_goals = len(env.goal_names)
    shared = (cfg.learning_rate, cfg.hidden, cfg.target_sync, rng.stream(seed, rng.INIT))
    # A network draws its initial weights from the one INIT stream, q1 first.
    q1 = make_estimator(cfg.backend, env.n_states, env.n_actions, n_goals, *shared)
    q2 = make_estimator(cfg.backend, env.n_states, n_goals, None, *shared)
    return HierarchicalAgent(
        env,
        q1,
        q2,
        seed=seed,
        gamma=cfg.gamma,
        d1_capacity=cfg.d1_capacity,
        d2_capacity=cfg.d2_capacity,
        d1_warmup=cfg.d1_warmup,
        d2_warmup=cfg.d2_warmup,
        batch_size=cfg.batch_size,
        eps1=EpsilonSchedule(cfg.eps_floor, cfg.eps1_horizon),
        eps2=EpsilonSchedule(cfg.eps_floor, cfg.eps2_horizon),
        tracker_window=cfg.tracker_window,
    )


@dataclass
class SeedResult:
    """Raw per-episode tallies for one training run."""

    seed: int
    rewards: np.ndarray  # (episodes,)
    visits: np.ndarray | None = None  # int32 (episodes, n_states), chain only
    picks: np.ndarray | None = None  # (episodes, n_goals), key-door only
    successes: np.ndarray | None = None  # (episodes, n_goals), key-door only
    pretrain_episodes: int = 0
    checkpoint: bytes = b""
    goal_names: tuple = ()

    def columns(self, cfg: ExperimentConfig) -> dict:
        if self.visits is not None:
            return metrics.chain_columns(
                self.rewards, self.visits, cfg.reward_window, cfg.visit_window
            )
        return metrics.keydoor_columns(
            self.rewards, self.picks, self.successes, cfg.reward_window
        )


def run_seed(cfg: ExperimentConfig, seed: int) -> SeedResult:
    """Train one agent to the configured budget and tally every episode."""
    env = build_env(cfg)
    agent = build_agent(cfg, seed, env)
    n_goals = len(agent.goal_names)
    env_gen = rng.draws(seed, rng.ENV)

    track_visits = cfg.env == "chain"  # chain columns read visits, key-door ones goal tallies
    rewards: list[float] = []
    visits: list[int] = []  # every chain episode's env.visits, end to end
    picks: list[np.ndarray] = []
    successes: list[np.ndarray] = []

    def tally(trace):
        rewards.append(trace.total_reward)
        if track_visits:
            visits.extend(env.visits)
        else:
            # Exact: the weighted counts are sums of ones in float64.
            picks.append(np.bincount(trace.goal_picks, minlength=n_goals))
            successes.append(np.bincount(trace.goal_picks, trace.goal_successes, minlength=n_goals))
        if not math.isfinite(trace.total_reward):
            raise DivergenceError(
                f"non-finite episode reward at episode {len(rewards)} (seed {seed})"
            )

    start = time.perf_counter()

    def report(where):
        steps, elapsed = agent.primitive_steps, time.perf_counter() - start
        recent = rewards[-cfg.reward_window :]
        mean = sum(recent) / len(recent)
        line = f"seed {seed}: {where}, {steps} steps, reward_ma {mean:.4f}, {elapsed:.2f} s"
        print(f"{line}, {steps / elapsed:.0f} steps/s", file=sys.stderr, flush=True)

    pretrain_episodes = 0  # validation allows pretraining for hdqn only
    tenth = 1  # the next tenth of pretrain_steps to report
    while (steps := agent.primitive_steps) < cfg.pretrain_steps:
        if steps * 10 >= tenth * cfg.pretrain_steps:
            report(f"pretrain {steps}/{cfg.pretrain_steps}")
            tenth = steps * 10 // cfg.pretrain_steps + 1
        tally(agent.run_episode(env_gen, phase="pretrain"))
        pretrain_episodes += 1
    if cfg.pretrain_steps:
        report(f"pretrain {steps}/{cfg.pretrain_steps}")
    ends = sorted({cfg.episodes * k // 10 for k in range(1, 11)} - {0})  # at most ten chunks
    for done, end in zip([0, *ends], ends):
        for _ in range(done, end):
            tally(agent.run_episode(env_gen))
        report(f"episode {end}/{cfg.episodes}")
    checkpoint = dump_agent(agent, env)  # as training ends, before any tally is converted

    return SeedResult(
        seed=seed,
        rewards=np.asarray(rewards, dtype=np.float64),
        # 8 bytes a count in the flat list, against about 110 for a list
        # object per episode; converted once, after training, to 4 bytes a
        # count. A count past 2**31 - 1 raises OverflowError, not wraps.
        visits=(
            np.fromiter(visits, np.int32, len(visits)).reshape(-1, env.n_states)
            if track_visits
            else None
        ),
        picks=None if track_visits else np.asarray(picks, dtype=np.int64),
        successes=None if track_visits else np.asarray(successes, dtype=np.int64),
        pretrain_episodes=pretrain_episodes,
        checkpoint=checkpoint,
        goal_names=agent.goal_names,
    )


def _resolve_workers(cfg: ExperimentConfig) -> int:
    if cfg.workers:
        return min(cfg.workers, len(cfg.seeds))
    return min(os.cpu_count() or 1, len(cfg.seeds))


def run_all_seeds(cfg: ExperimentConfig) -> list:
    workers = _resolve_workers(cfg)
    if workers <= 1:
        return [run_seed(cfg, seed) for seed in cfg.seeds]
    # Imported here: the pool's modules cost an inline run about 20 ms of set-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_seed, [cfg] * len(cfg.seeds), cfg.seeds))


def file_stem(cfg: ExperimentConfig) -> str:
    return f"{cfg.env}_{cfg.agent}"


def write_outputs(cfg: ExperimentConfig, results: list, out_dir: str) -> list:
    """Emit per-seed CSVs, checkpoints, and the cross-seed aggregate into
    out_dir, which run_experiment has created."""
    stem = file_stem(cfg)
    header, agg_header = metrics.HEADERS[cfg.env]
    written = []
    per_seed_cols = []
    for res in results:
        cols = res.columns(cfg)
        per_seed_cols.append(cols)
        csv_path = os.path.join(out_dir, f"{stem}_seed{res.seed}.csv")
        metrics.write_csv(
            csv_path, header, metrics.csv_blocks(header, cols, res.seed, res.goal_names)
        )
        written.append(csv_path)
        ckpt_path = os.path.join(out_dir, f"{stem}_seed{res.seed}.ckpt")
        with metrics.atomic_open(ckpt_path, "wb") as fh:
            fh.write(res.checkpoint)
        written.append(ckpt_path)

    agg_path = os.path.join(out_dir, f"{stem}_aggregate.csv")
    metrics.write_csv(
        agg_path,
        agg_header,
        metrics.aggregate_blocks(agg_header, per_seed_cols, results[0].goal_names),
    )
    written.append(agg_path)
    return written


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> list:
    """Train every seed and write the outputs; the output directory is
    created first, so a path that cannot hold it fails before training."""
    out_dir = out_dir or cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from None
    results = run_all_seeds(cfg)
    return write_outputs(cfg, results, out_dir)


@dataclass
class EvalSummary:
    episodes: int
    epsilon: float
    mean_reward: float
    sem: float
    rewards: np.ndarray
    goal_success: dict = field(default_factory=dict)
    goal_picks: dict = field(default_factory=dict)  # name -> share of all goal picks

    @property
    def ci95(self) -> tuple:
        half = 1.96 * self.sem
        return (self.mean_reward - half, self.mean_reward + half)


def evaluate_policy(agent, episodes: int, epsilon: float, seed: int = 0) -> EvalSummary:
    """Frozen-policy rollouts; reports extrinsic reward, goal success and
    each goal's share of the goal picks.

    Episode i draws its environment and choice streams from the key
    (seed, EVAL, i), disjoint from every training stream and from the
    evaluation streams of every other seed.
    """
    rewards = np.empty(episodes)
    attempts: dict = {}
    hits: dict = {}
    for i in range(episodes):
        env_gen = rng.stream(seed, rng.EVAL, i, rng.ENV)
        pick_gen = rng.stream(seed, rng.EVAL, i, rng.EVAL)
        trace = agent.eval_episode(epsilon, env_gen, pick_gen)
        for g, ok in zip(trace.goal_picks, trace.goal_successes):
            attempts[g] = attempts.get(g, 0) + 1
            hits[g] = hits.get(g, 0) + ok
        rewards[i] = trace.total_reward
    sem = float(rewards.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    goal_success = {agent.goal_names[g]: hits[g] / attempts[g] for g in sorted(attempts)}
    picks = sum(attempts.values())
    goal_picks = {agent.goal_names[g]: attempts[g] / picks for g in sorted(attempts)}
    return EvalSummary(
        episodes=episodes,
        epsilon=epsilon,
        mean_reward=float(rewards.mean()),
        sem=sem,
        rewards=rewards,
        goal_success=goal_success,
        goal_picks=goal_picks,
    )
