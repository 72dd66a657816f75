"""Per-layer spans around the public functions of the hdqn package.

Everything is wrapped from outside: module attributes and class
attributes are replaced by timing wrappers, and nothing under src/
changes. Spans nest; each closed span adds its duration to the span that
was open around it, so a layer's self time is its duration minus the
time of the spans it caused.

A workload makes millions of per-step calls, so closed spans are folded
into one counter row per span name as they close (calls, total seconds,
self seconds) and kept in memory until the workload ends. The rows are
what the benchmark writes out.
"""
from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # span name -> [calls, total_s, self_s]
        self._open: list = []  # time covered by child spans, per open span
        self.agent = None  # the agent of the seed being trained
        self.reached_hits = 0
        self.episode_steps = 0
        self.options = 0
        self.option_hits = 0

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace owner.attr by a wrapper recording a span per call.

        name is a span name, or a function of the call's positional
        arguments that returns one (to tell d1 from d2 by identity).
        observe(args, result) runs after the span closes.
        """
        fn = getattr(owner, attr)
        stats, open_spans, clock = self.stats, self._open, time.perf_counter
        name_of = name if callable(name) else None

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                key = name_of(args) if name_of is not None else name
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - inner
            if observe is not None:
                observe(args, out)
            return out

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer. Call before the config is loaded."""
        from hdqn import config, harness, metrics
        from hdqn.agents import flat, hierarchical
        from hdqn.critic import Critic
        from hdqn.envs.chain import ChainEnv
        from hdqn.envs.keydoor import KeyDoorEnv
        from hdqn.replay import ReplayBuffer
        from hdqn.values import MlpQ, TabularQ

        def level(prefix, first, second):
            # d1/d2 and q1/q2 share one class, so tell them apart by
            # identity against the agent being trained.
            def name_of(args):
                return prefix + (first if args[0] is getattr(self.agent, first, None) else second)

            return name_of

        def on_build(args, agent):
            self.agent = agent

        def on_reached(args, hit):
            self.reached_hits += hit

        def on_episode(args, trace):
            self.episode_steps += trace.steps
            self.options += len(trace.goal_successes)
            self.option_hits += sum(trace.goal_successes)

        self.wrap(config, "load_config", "config.load_config")
        self.wrap(harness, "run_seed", "harness.run_seed")
        self.wrap(harness, "build_agent", "harness.build_agent", on_build)
        self.wrap(harness, "dump_agent", "checkpoint.dump_agent")
        self.wrap(harness, "write_outputs", "harness.write_outputs")
        for cls in (ChainEnv, KeyDoorEnv):
            self.wrap(cls, "step", "envs.step")
        self.wrap(Critic, "reached", "critic.reached", on_reached)
        for module in (hierarchical, flat):
            self.wrap(module, "eps_greedy", "agents.eps_greedy")
        for cls in (hierarchical.HierarchicalAgent, flat.FlatQAgent):
            self.wrap(cls, "run_episode", "agents.run_episode", on_episode)
        for cls in (TabularQ, MlpQ):
            self.wrap(cls, "values", "values.values")
            self.wrap(cls, "train_on", level("values.train_on.", "q1", "q2"))
        self.wrap(TabularQ, "backup", "values.backup")
        self.wrap(ReplayBuffer, "push", level("replay.push.", "d1", "d2"))
        self.wrap(ReplayBuffer, "sample", level("replay.sample.", "d1", "d2"))
        for fn in ("chain_columns", "keydoor_columns"):
            self.wrap(metrics, fn, "metrics.columns")
        self.wrap(metrics, "aggregate", "metrics.aggregate")
        self.wrap(metrics, "write_csv", "metrics.write_csv")

    def layer_metrics(self) -> dict:
        """Per-call microseconds, call counts, total seconds and ratios."""
        out = {}

        def row(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        for name in (
            "replay.sample.d1",
            "replay.sample.d2",
            "replay.push.d1",
            "replay.push.d2",
            "values.train_on.q1",
            "values.train_on.q2",
            "values.values",
            "values.backup",
            "agents.eps_greedy",
            "envs.step",
            "critic.reached",
        ):
            calls, total, _ = row(name)
            out[name + ".us"] = total / calls * 1e6 if calls else 0.0
            out[name + ".calls"] = calls
        for name in (
            "metrics.columns",
            "metrics.aggregate",
            "metrics.write_csv",
            "checkpoint.dump_agent",
            "harness.write_outputs",
            "harness.run_seed",
            "harness.build_agent",
            "config.load_config",
        ):
            out[name + ".s"] = row(name)[1]
        episodes, _, episode_self = row("agents.run_episode")
        reached_calls = row("critic.reached")[0]
        out["agents.run_episode.calls"] = episodes
        out["agents.run_episode.self_s"] = episode_self
        out["agents.steps_per_episode"] = self.episode_steps / episodes if episodes else 0.0
        out["agents.option_success_ratio"] = self.option_hits / self.options if self.options else 0.0
        out["critic.reached.hit_ratio"] = self.reached_hits / reached_calls if reached_calls else 0.0
        return out
