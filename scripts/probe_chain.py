"""Diagnostic: watch the two-level agent learn the chain task.

Trains one seed of configs/chain_hdqn.cfg through the harness's own
build_env and build_agent, printing the reward, far-end visits,
exploration rates and per-goal success as it goes, then the learned
tables. Flags override only the budget, the seed and the learning rate:

    python scripts/probe_chain.py [--episodes N] [--seed K] [--learning-rate A]
"""
import argparse
import pathlib
import sys
import time

import numpy as np

from hdqn import rng
from hdqn.config import load_config
from hdqn.errors import ConfigError
from hdqn.harness import build_agent, build_env

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "chain_hdqn.cfg"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, help="training episodes (default: the config's)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--learning-rate", type=float, help="default: the config's")
    args = parser.parse_args(argv)
    overrides = {"seeds": (args.seed,), "workers": 1}
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if args.learning_rate is not None:
        overrides["learning_rate"] = args.learning_rate
    try:
        cfg = load_config(CONFIG, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    agent = build_agent(cfg, args.seed, build_env(cfg))
    env_gen = rng.stream(args.seed, rng.ENV)
    every = max(1, min(1000, cfg.episodes // 10))
    goals = range(len(agent.goal_names))

    t0 = time.time()
    rewards = []
    s6_visits = []
    for ep in range(cfg.episodes):
        tr = agent.run_episode(env_gen)
        rewards.append(tr.total_reward)
        s6_visits.append(agent.env.visits[5])
        if (ep + 1) % every == 0:
            block = slice(ep + 1 - every, ep + 1)
            rates = [round(agent.tracker.success_rate(g), 2) for g in goals]
            eps1s = [round(agent.controller_epsilon(g), 2) for g in goals]
            print(
                f"ep {ep+1:6d}  r_mean {np.mean(rewards[block]):.4f}  "
                f"s6/ep {np.mean(s6_visits[block]):.3f}  "
                f"eps2 {agent.eps2.value(agent.joint_steps):.2f}  "
                f"eps1 {eps1s}  succ {rates}  "
                f"q2(s2) {[round(v, 3) for v in agent.q2.values(1)]}"
            )
    print(f"{time.time()-t0:.1f}s  steps={agent.primitive_steps}")
    print("q2 table:")
    for s in range(agent.env.n_states):
        print(" ", s, [round(v, 3) for v in agent.q2.values(s)])
    print("q1 right-vs-left for goal s6:")
    for s in range(agent.env.n_states):
        print(" ", s, [round(x, 3) for x in agent.q1.values(s * agent.n_goals + 5)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
