"""Command-line entry point.

Subcommands:
    run     train an experiment from a config file and write CSVs; stdout
            lists the written paths, stderr carries each seed's progress
    eval    frozen-policy evaluation of a saved checkpoint: mean reward,
            and each goal's success rate and share of the picks
    oracle  exact solution of the chain task for verification

Exit codes: 0 success, 1 configuration or usage error, 2 runtime divergence.
"""
from __future__ import annotations

import argparse
import sys

from hdqn import oracle
from hdqn.checkpoint import read_agent
from hdqn.config import default_config, load_config
from hdqn.errors import ConfigError, DivergenceError
from hdqn.harness import evaluate_policy, run_experiment
from hdqn.values import BACKENDS

MAX_EVAL_EPISODES = 10**7  # most episodes `hdqn eval` rolls out (8 bytes of reward each)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as a bad config does
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hdqn",
        description="Hierarchical and flat Q-learning experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train per config and emit CSV metrics")
    run_p.add_argument("--config", help="config file (flat key=value lines)")
    run_p.add_argument("--seed", type=int, help="run a single seed instead of the configured list")
    run_p.add_argument("--out", help="output directory (default from config)")
    run_p.add_argument("--backend", choices=BACKENDS, help="value-function backend override")

    eval_p = sub.add_parser("eval", help="evaluate a saved checkpoint with frozen values")
    eval_p.add_argument("--checkpoint", required=True, help="checkpoint file from a run")
    eval_p.add_argument("--episodes", type=int, default=100)
    eval_p.add_argument("--epsilon", type=float, default=0.1)
    eval_p.add_argument("--seed", type=int, default=0, help="seed of the evaluation rollouts' streams")

    oracle_p = sub.add_parser("oracle", help="print the exact chain solution")
    oracle_p.add_argument("--gamma", type=float, default=1.0)
    return parser


def cmd_run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.config:
        cfg = load_config(args.config, overrides)
    else:
        cfg = default_config(**overrides)
    written = run_experiment(cfg, args.out)
    for path in written:
        print(path)
    return 0


def cmd_eval(args) -> int:
    if not 1 <= args.episodes <= MAX_EVAL_EPISODES:
        raise ConfigError(f"--episodes must be in [1, {MAX_EVAL_EPISODES}], got {args.episodes}")
    if not 0.0 <= args.epsilon <= 1.0:
        raise ConfigError(f"--epsilon must be in [0, 1], got {args.epsilon}")
    if not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
    agent, _, kind = read_agent(args.checkpoint)
    summary = evaluate_policy(agent, args.episodes, args.epsilon, seed=args.seed)
    lo, hi = summary.ci95
    print(f"agent: {kind}")
    print(f"episodes: {summary.episodes}  epsilon: {summary.epsilon}")
    print(f"mean extrinsic reward: {summary.mean_reward:.4f}  ci95: [{lo:.4f}, {hi:.4f}]")
    for name, rate in summary.goal_success.items():
        print(f"goal {name}: success rate {rate:.3f}  picks {summary.goal_picks[name]:.3f}")
    return 0


def cmd_oracle(args) -> int:
    if not 0.0 <= args.gamma <= 1.0:
        raise ConfigError(f"--gamma must be in [0, 1], got {args.gamma}")
    solution = oracle.value_iteration(oracle.chain_model(), gamma=args.gamma)
    print(f"converged in {solution.iterations} sweeps, residual {solution.residual:.3e}")
    print("position  V*(not visited)  V*(visited)  greedy(not visited)")
    names = {0: "left", 1: "right"}
    for pos in range(1, 7):
        lo = oracle.augmented_index(pos, False)
        hi = oracle.augmented_index(pos, True)
        act = "-" if pos == 1 else names[int(solution.policy[lo])]
        print(
            f"s{pos:<8d} {solution.v[lo]:<16.6f} {solution.v[hi]:<12.6f} {act}"
        )
    return 0


def main(argv=None) -> int:
    handlers = {"run": cmd_run, "eval": cmd_eval, "oracle": cmd_oracle}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
