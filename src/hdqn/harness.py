"""Multi-seed experiment driver.

One seed = one independent agent, environment, and RNG stream family.
Training logs raw per-episode tallies; windowed metric columns and CSVs
are derived afterwards so identical runs produce identical bytes. Seeds
run in worker processes when more than one CPU is available, with a
single-threaded reduce for the aggregate files.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from hdqn import metrics, rng
from hdqn.agents import EpsilonSchedule, FlatQAgent, HierarchicalAgent
from hdqn.checkpoint import dump_agent
from hdqn.config import ExperimentConfig
from hdqn.critic import Critic, goal_set
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv
from hdqn.errors import DivergenceError


def build_env(cfg: ExperimentConfig):
    if cfg.env == "chain":
        return ChainEnv()
    return KeyDoorEnv(cfg.layout or None, step_limit=cfg.step_limit)


def build_agent(cfg: ExperimentConfig, seed: int, env, n_goals: int | None):
    if cfg.agent == "flat":
        return FlatQAgent(
            env.n_states,
            env.n_actions,
            seed=seed,
            learning_rate=cfg.learning_rate,
            gamma=cfg.gamma,
            eps=EpsilonSchedule(1.0, cfg.eps_floor, cfg.eps1_horizon),
        )
    return HierarchicalAgent(
        env.n_states,
        env.n_actions,
        n_goals,
        seed=seed,
        backend=cfg.backend,
        learning_rate=cfg.learning_rate,
        gamma=cfg.gamma,
        d1_capacity=cfg.d1_capacity,
        d2_capacity=cfg.d2_capacity,
        d1_warmup=cfg.d1_warmup,
        d2_warmup=cfg.d2_warmup,
        batch_size=cfg.batch_size,
        eps1=EpsilonSchedule(1.0, cfg.eps_floor, cfg.eps1_horizon),
        eps2=EpsilonSchedule(1.0, cfg.eps_floor, cfg.eps2_horizon),
        eps1_floor=cfg.eps_floor,
        tracker_window=cfg.tracker_window,
        hidden=cfg.hidden,
        target_sync=cfg.target_sync,
    )


@dataclass
class SeedResult:
    """Raw per-episode tallies for one training run."""

    seed: int
    rewards: np.ndarray  # (episodes,)
    visits: np.ndarray | None = None  # (episodes, n_states), chain only
    picks: np.ndarray | None = None  # (episodes, n_goals)
    successes: np.ndarray | None = None  # (episodes, n_goals)
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
    if cfg.agent == "flat":
        critic = None
        goal_names = ()
        n_goals = 0
    else:
        critic = Critic(env)
        goal_names = tuple(g.name for g in goal_set(env))
        n_goals = critic.n_goals
    agent = build_agent(cfg, seed, env, n_goals)
    env_gen = rng.stream(seed, rng.ENV)

    track_visits = cfg.env == "chain"
    rewards: list[float] = []
    visits: list[list[int]] = []
    picks: list[np.ndarray] = []
    successes: list[np.ndarray] = []

    def tally(trace):
        rewards.append(trace.total_reward)
        if track_visits:
            visits.append(trace.state_visits)
        if critic is not None:
            p = np.zeros(n_goals, dtype=np.int64)
            ok = np.zeros(n_goals, dtype=np.int64)
            for g, hit in zip(trace.goal_picks, trace.goal_successes):
                p[g] += 1
                ok[g] += hit
            picks.append(p)
            successes.append(ok)
        if not np.isfinite(trace.total_reward):
            raise DivergenceError(
                f"non-finite episode reward at episode {len(rewards)} (seed {seed})"
            )

    pretrain_episodes = 0
    if cfg.agent == "hdqn" and cfg.pretrain_steps > 0:
        while agent.primitive_steps < cfg.pretrain_steps:
            tally(
                agent.run_episode(
                    env, critic, "pretrain", env_gen, count_visits=track_visits
                )
            )
            pretrain_episodes += 1

    for _ in range(cfg.episodes):
        if cfg.agent == "flat":
            tally(agent.run_episode(env, env_gen, count_visits=track_visits))
        else:
            tally(
                agent.run_episode(env, critic, "joint", env_gen, count_visits=track_visits)
            )

    return SeedResult(
        seed=seed,
        rewards=np.asarray(rewards, dtype=np.float64),
        visits=np.asarray(visits, dtype=np.int64) if track_visits else None,
        picks=np.asarray(picks, dtype=np.int64) if critic is not None else None,
        successes=np.asarray(successes, dtype=np.int64) if critic is not None else None,
        pretrain_episodes=pretrain_episodes,
        checkpoint=dump_agent(agent, env),
        goal_names=goal_names,
    )


def _resolve_workers(cfg: ExperimentConfig) -> int:
    if cfg.workers:
        return min(cfg.workers, len(cfg.seeds))
    return min(os.cpu_count() or 1, len(cfg.seeds))


def run_all_seeds(cfg: ExperimentConfig) -> list:
    workers = _resolve_workers(cfg)
    if workers <= 1:
        return [run_seed(cfg, seed) for seed in cfg.seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_seed, [cfg] * len(cfg.seeds), cfg.seeds))


def file_stem(cfg: ExperimentConfig) -> str:
    return f"{cfg.env}_{cfg.agent}"


def write_outputs(cfg: ExperimentConfig, results: list, out_dir: str) -> list:
    """Emit per-seed CSVs, checkpoints, and the cross-seed aggregate."""
    os.makedirs(out_dir, exist_ok=True)
    stem = file_stem(cfg)
    header, agg_header = metrics.HEADERS[cfg.env]
    written = []
    per_seed_cols = []
    for res in results:
        cols = res.columns(cfg)
        per_seed_cols.append(cols)
        csv_path = os.path.join(out_dir, f"{stem}_seed{res.seed}.csv")
        metrics.write_csv(
            csv_path, header, metrics.csv_rows(header, cols, res.seed, res.goal_names)
        )
        written.append(csv_path)
        ckpt_path = os.path.join(out_dir, f"{stem}_seed{res.seed}.ckpt")
        with open(ckpt_path, "wb") as fh:
            fh.write(res.checkpoint)
        written.append(ckpt_path)

    agg = metrics.aggregate(per_seed_cols)
    agg_path = os.path.join(out_dir, f"{stem}_aggregate.csv")
    metrics.write_csv(
        agg_path,
        agg_header,
        metrics.csv_rows(agg_header, agg, goal_names=results[0].goal_names),
    )
    written.append(agg_path)
    return written


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> list:
    results = run_all_seeds(cfg)
    return write_outputs(cfg, results, out_dir or cfg.out_dir)


@dataclass
class EvalSummary:
    episodes: int
    epsilon: float
    mean_reward: float
    sem: float
    rewards: np.ndarray
    goal_success: dict = field(default_factory=dict)

    @property
    def ci95(self) -> tuple:
        half = 1.96 * self.sem
        return (self.mean_reward - half, self.mean_reward + half)


def evaluate_policy(agent, env, episodes: int, epsilon: float, seed: int = 0, critic=None) -> EvalSummary:
    """Frozen-policy rollouts; reports extrinsic reward and goal success."""
    if isinstance(agent, HierarchicalAgent) and critic is None:
        critic = Critic(env)
    rewards = np.empty(episodes)
    attempts: dict = {}
    hits: dict = {}
    names = tuple(g.name for g in goal_set(env)) if critic is not None else ()
    for i in range(episodes):
        env_gen = rng.stream(seed + i, rng.ENV)
        pick_gen = rng.stream(seed + i, rng.EVAL)
        if critic is None:
            trace = agent.eval_episode(env, epsilon, env_gen, pick_gen)
        else:
            trace = agent.eval_episode(env, critic, epsilon, env_gen, pick_gen)
            for g, ok in zip(trace.goal_picks, trace.goal_successes):
                attempts[g] = attempts.get(g, 0) + 1
                hits[g] = hits.get(g, 0) + ok
        rewards[i] = trace.total_reward
    sem = float(rewards.std(ddof=1) / np.sqrt(episodes)) if episodes > 1 else 0.0
    goal_success = {
        names[g]: hits[g] / attempts[g] for g in sorted(attempts) if attempts[g]
    }
    return EvalSummary(
        episodes=episodes,
        epsilon=epsilon,
        mean_reward=float(rewards.mean()),
        sem=sem,
        rewards=rewards,
        goal_success=goal_success,
    )
