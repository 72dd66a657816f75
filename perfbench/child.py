"""One workload run in a fresh process: set-up, training, outputs, checks.

Run by run.py, never by hand. argv[1] is a JSON job:

    src        directory holding the hdqn package
    config     shipped config file
    overrides  budget, seeds, workers, backend and out_dir overrides
    trace      wrap every layer and report per-layer metrics
    setup_only stop at the first seed's built agent

The run goes through config.load_config and harness.run_experiment, the
calls `hdqn run` makes. Three harness functions are hooked, once per seed
each, to time set-up and training without tracing: set-up ends when
harness.build_agent returns (the next statement leads to the first
environment step), training ends when harness.dump_agent is called.

The run is also cut into stretches of work at marks: each return of
build_agent, of an agent's run_episode and of the metrics functions that
compute columns, aggregate and write CSVs, every ROWS_PER_MARK rows a CSV
is written, each call of dump_agent, and the end. Every repetition of a benchmark run
does the same work, so its stretches line up with theirs, and run.py
takes the fastest time of each stretch across repetitions.

The last stdout line is the JSON report that main() returns.
"""
from __future__ import annotations

import array
import csv
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time

JOB = json.loads(sys.argv[1])
sys.path.insert(0, JOB["src"])

T0 = time.perf_counter()  # the workload starts: import, configure, build
CPU0 = time.process_time()
from hdqn import config, harness, metrics  # noqa: E402
from hdqn.agents.flat import FlatQAgent  # noqa: E402
from hdqn.agents.hierarchical import HierarchicalAgent  # noqa: E402
from hdqn.checkpoint import dump_agent, read_agent  # noqa: E402


class SetupDone(Exception):
    """Raised from the build_agent hook when only set-up is timed."""


MAX_STRETCHES = 4000  # consecutive stretches are merged down to this many
ROWS_PER_MARK = 1000


class SeedProbe:
    """Per-seed bookkeeping and marks from hooks on harness functions."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.seeds: list = []
        self.setup_end = None
        self.marks = array.array("d", [T0])  # compact: one per episode
        self.train_windows: list = []  # (first, last) mark index of each seed's training

    def install(self) -> None:
        run_seed, build_agent, dump = harness.run_seed, harness.build_agent, harness.dump_agent
        marks = self.marks
        clock = time.perf_counter

        def hooked_run_seed(cfg, seed):
            rec = {"seed": seed}
            self.seeds.append(rec)
            rec["result"] = run_seed(cfg, seed)
            return rec["result"]

        def hooked_build_agent(*args, **kwargs):
            agent = build_agent(*args, **kwargs)
            now = clock()
            marks.append(now)
            if self.setup_end is None:
                self.setup_end = now
            self.seeds[-1]["built"] = now
            self.seeds[-1]["first_mark"] = len(marks) - 1
            if self.setup_only:
                raise SetupDone
            return agent

        def hooked_dump(agent, env):
            rec = self.seeds[-1]
            rec["trained"] = clock()
            marks.append(rec["trained"])
            self.train_windows.append((rec["first_mark"], len(marks) - 1))
            rec["steps"] = agent.primitive_steps
            rec["d1_fill"] = len(agent.d1) if hasattr(agent, "d1") else 0
            rec["d2_fill"] = len(agent.d2) if hasattr(agent, "d2") else 0
            return dump(agent, env)

        def mark_after(fn):
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                marks.append(clock())
                return out

            return hooked

        def marked(rows):
            for i, row in enumerate(rows, 1):
                yield row
                if i % ROWS_PER_MARK == 0:
                    marks.append(clock())

        write_csv = metrics.write_csv

        def hooked_write_csv(path, header, rows):
            return write_csv(path, header, marked(rows))

        harness.run_seed = hooked_run_seed
        harness.build_agent = hooked_build_agent
        harness.dump_agent = hooked_dump
        metrics.write_csv = mark_after(hooked_write_csv)
        for fn in ("chain_columns", "keydoor_columns", "aggregate"):
            setattr(metrics, fn, mark_after(getattr(metrics, fn)))
        for cls in (HierarchicalAgent, FlatQAgent):
            cls.run_episode = mark_after(cls.run_episode)

    def stretches(self) -> dict:
        """Durations between marks: training ones, and all the others."""
        train, other = [], []
        inside = set()
        for first, last in self.train_windows:
            inside.update(range(first, last))
        for i in range(len(self.marks) - 1):
            (train if i in inside else other).append(self.marks[i + 1] - self.marks[i])
        return {"train": merged(train), "other": merged(other)}


def merged(durations: list) -> list:
    """Sums of consecutive runs of durations, at most MAX_STRETCHES of them."""
    n = -(-len(durations) // MAX_STRETCHES) or 1
    return [sum(durations[i : i + n]) for i in range(0, len(durations), n)]


def read_rows(path: str) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def rows_per_episode(cfg, res) -> int:
    """Key-door CSVs hold one row per goal per episode, chain CSVs one."""
    return len(res.goal_names) if cfg.env == "keydoor" else 1


def verify_seed(cfg, rec: dict, out_dir: str, sizes: dict) -> dict:
    """Check one seed's CSV and checkpoint; return its readings."""
    res, seed, stem = rec["result"], rec["seed"], harness.file_stem(cfg)
    n_goals = rows_per_episode(cfg, res)
    episodes = len(res.rewards)
    check(episodes == cfg.episodes + res.pretrain_episodes, "episode count != budget")

    header, rows = read_rows(os.path.join(out_dir, f"{stem}_seed{seed}.csv"))
    check(len(rows) == episodes * n_goals, f"{len(rows)} csv rows for {episodes} episodes")
    ep, ma = header.index("episode"), header.index("reward_ma")
    check(all(int(r[ep]) == i // n_goals + 1 for i, r in enumerate(rows)), "episode column out of order")
    check(all(math.isfinite(float(r[ma])) for r in rows), "non-finite reward_ma")
    sizes["csv_rows"] += len(rows)

    path = os.path.join(out_dir, f"{stem}_seed{seed}.ckpt")
    with open(path, "rb") as fh:
        blob = fh.read()
    check(blob == res.checkpoint, "checkpoint file differs from the run's checkpoint")
    t = time.perf_counter()
    agent, env, _ = read_agent(path)
    sizes["read_agent_s"] += time.perf_counter() - t
    check(dump_agent(agent, env) == blob, "dump_agent(load_agent(b)) != b")
    check(agent.primitive_steps == rec["steps"], "checkpoint step count != trained steps")
    return {"seed": seed, "final_reward_ma": float(rows[-1][ma])}


def verify(cfg, probe: SeedProbe, written: list) -> tuple:
    """Returns (failed seeds, per-seed readings, sizes, digest, errors)."""
    out_dir = cfg.out_dir
    sizes = {"csv_rows": 0, "csv_bytes": 0, "checkpoint_bytes": 0, "read_agent_s": 0.0}
    failed, readings, errors = 0, [], []
    for rec in probe.seeds:
        try:
            readings.append(verify_seed(cfg, rec, out_dir, sizes))
        except (AssertionError, OSError, ValueError) as exc:
            failed += 1
            errors.append(f"seed {rec['seed']}: {exc}")
    agg_path = os.path.join(out_dir, f"{harness.file_stem(cfg)}_aggregate.csv")
    header, rows = read_rows(agg_path)
    longest = max(len(rec["result"].rewards) for rec in probe.seeds)
    n_goals = rows_per_episode(cfg, probe.seeds[0]["result"])
    ma = header.index("reward_ma_mean")
    if len(rows) != longest * n_goals or not all(math.isfinite(float(r[ma])) for r in rows):
        failed = len(probe.seeds)
        errors.append("aggregate csv has the wrong length or a non-finite mean")
    sizes["csv_rows"] += len(rows)

    digest = hashlib.sha256()
    for path in sorted(written, key=os.path.basename):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(f"{os.path.basename(path)}\0{len(data)}\0".encode())
        digest.update(data)
        sizes["checkpoint_bytes" if path.endswith(".ckpt") else "csv_bytes"] += len(data)
    final = {"aggregate_reward_ma_mean": float(rows[-1][ma]), "per_seed": readings}
    return failed, final, sizes, digest.hexdigest(), errors


def main() -> dict:
    tracer = None
    if JOB["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probe = SeedProbe(JOB["setup_only"])
    probe.install()

    cfg = config.load_config(JOB["config"], JOB["overrides"])
    report = {"config": dataclasses.asdict(cfg), "attempted": 0, "failed": 0, "errors": []}
    try:
        written = harness.run_experiment(cfg)
    except SetupDone:
        report["setup_s"] = probe.setup_end - T0
        return report
    except Exception as exc:  # a seed raised: every attempted seed lost its outputs
        report["attempted"] = report["failed"] = len(probe.seeds)
        report["errors"].append(f"{type(exc).__name__}: {exc}")
        return report
    probe.marks.append(time.perf_counter())
    wall = probe.marks[-1] - T0
    cpu = time.process_time() - CPU0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = tracer.layer_metrics() if tracer else None
    failed, final, sizes, digest, errors = verify(cfg, probe, written)
    steps = sum(rec["steps"] for rec in probe.seeds)
    train_s = sum(rec["trained"] - rec["built"] for rec in probe.seeds)
    if tracer and tracer.episode_steps != steps:
        failed = len(probe.seeds)
        errors.append("traced episode steps != agents' primitive steps")
    report.update(
        attempted=len(probe.seeds),
        failed=failed,
        errors=errors,
        setup_s=probe.setup_end - T0,
        wall_s=wall,
        cpu_s=cpu,
        train_s=train_s,
        steps=steps,
        train_steps_per_s=steps / train_s,
        peak_rss_mb=peak_rss_mb,
        digest=digest,
        final=final,
        stretches=probe.stretches(),
    )
    if layers is not None:
        fills = len(probe.seeds)
        layers.update(
            {
                "replay.d1.fill": sum(rec["d1_fill"] for rec in probe.seeds) / fills,
                "replay.d2.fill": sum(rec["d2_fill"] for rec in probe.seeds) / fills,
                "metrics.csv_rows": sizes["csv_rows"],
                "metrics.csv_bytes": sizes["csv_bytes"],
                "checkpoint.bytes": sizes["checkpoint_bytes"],
                "checkpoint.read_agent.s": sizes["read_agent_s"],
            }
        )
        report["layers"] = layers
    return report


if __name__ == "__main__":
    print(json.dumps(main()))
