"""Diagnostic: watch the two-level agent learn the key-door task.

Trains one seed of configs/keydoor_hdqn.cfg through the harness's own
build_env and build_agent, printing per-goal success after pretraining
and reward, success and goal-pick shares during joint training, then
evaluates the frozen policy with harness.evaluate_policy (the streams
`hdqn eval` uses). Flags override only the budget, the seed and the
learning rate:

    python scripts/probe_keydoor.py [--pretrain-steps N] [--episodes N]
        [--seed K] [--learning-rate A]
"""
import argparse
import pathlib
import sys
import time

import numpy as np

from hdqn import rng
from hdqn.config import load_config
from hdqn.errors import ConfigError
from hdqn.harness import build_agent, build_env, evaluate_policy

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "keydoor_hdqn.cfg"
EVAL_EPISODES = 100
EVAL_EPSILON = 0.1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pretrain-steps", type=int, help="default: the config's")
    parser.add_argument("--episodes", type=int, help="joint episodes (default: the config's)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--learning-rate", type=float, help="default: the config's")
    args = parser.parse_args(argv)
    overrides = {"seeds": (args.seed,), "workers": 1}
    for key in ("pretrain_steps", "episodes", "learning_rate"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    try:
        cfg = load_config(CONFIG, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    agent = build_agent(cfg, args.seed, build_env(cfg))
    env_gen = rng.stream(args.seed, rng.ENV)
    names = agent.goal_names
    every = max(1, min(500, cfg.episodes // 10))

    def success_rates():
        return [round(agent.tracker.success_rate(g), 2) for g in range(len(names))]

    t0 = time.time()
    n_pre = 0
    while agent.primitive_steps < cfg.pretrain_steps:
        agent.run_episode(env_gen, phase="pretrain")
        n_pre += 1
    print(f"pretrain: {n_pre} episodes, {agent.primitive_steps} steps, "
          f"{time.time()-t0:.0f}s, succ {success_rates()}")

    rewards = []
    picks = []
    for ep in range(cfg.episodes):
        tr = agent.run_episode(env_gen)
        rewards.append(tr.total_reward)
        picks.extend(tr.goal_picks)
        if (ep + 1) % every == 0:
            recent = picks[-2000:]
            frac = np.bincount(recent, minlength=len(names)) / max(1, len(recent))
            print(
                f"ep {ep+1:5d}  r_mean {np.mean(rewards[ep + 1 - every:]):7.2f}  "
                f"eps2 {agent.eps2.value(agent.joint_steps):.2f}  "
                f"succ {success_rates()}  picks {np.round(frac, 2).tolist()}  "
                f"({time.time()-t0:.0f}s)"
            )

    print("goal names:", list(names))
    summary = evaluate_policy(agent, EVAL_EPISODES, EVAL_EPSILON, seed=args.seed)
    lo, hi = summary.ci95
    success = {name: round(rate, 2) for name, rate in summary.goal_success.items()}
    print(f"eval eps={EVAL_EPSILON}: mean {summary.mean_reward:.1f} [{lo:.1f}, {hi:.1f}]  "
          f"frac400 {np.mean(summary.rewards == 400.0):.2f}  succ {success}")
    print(f"total {time.time()-t0:.0f}s  steps {agent.primitive_steps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
