import copy
import csv
import os
import tracemalloc

import numpy as np
import pytest

from hdqn import harness, metrics, rng
from hdqn.agents import FlatQAgent
from hdqn.checkpoint import load_agent, read_agent
from hdqn.config import default_config
from hdqn.envs.chain import ChainEnv
from hdqn.harness import (
    SeedResult,
    build_agent,
    build_env,
    evaluate_policy,
    file_stem,
    run_experiment,
    run_seed,
    write_outputs,
)
from hdqn.metrics import CHAIN_HEADER, KEYDOOR_HEADER


def tiny_chain_config(**overrides):
    base = dict(
        seeds=(0, 1),
        episodes=40,
        learning_rate=0.1,
        eps1_horizon=200,
        eps2_horizon=200,
        d1_warmup=16,
        d2_warmup=16,
        reward_window=10,
        workers=0,
    )
    base.update(overrides)
    return default_config(**base)


def tiny_keydoor_config(**overrides):
    base = dict(
        env="keydoor",
        seeds=(0,),
        episodes=3,
        pretrain_steps=120,
        step_limit=40,
        learning_rate=0.1,
        d1_warmup=16,
        d2_warmup=16,
        reward_window=5,
        workers=0,
    )
    base.update(overrides)
    return default_config(**base)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_run_seed_produces_full_trace():
    cfg = tiny_chain_config()
    result = run_seed(cfg, 0)
    assert result.seed == 0
    assert len(result.rewards) == cfg.episodes
    assert result.visits.shape == (cfg.episodes, 6)
    assert result.pretrain_episodes == 0
    assert result.checkpoint[:4] == b"HACK"
    # chain CSVs read rewards and visits only, so no goal tallies are kept
    assert len(result.goal_names) > 0
    assert result.picks is None and result.successes is None


@pytest.mark.parametrize("agent", ["hdqn", "flat"])
def test_chain_visits_are_int32_step_counts(agent):
    cfg = tiny_chain_config(agent=agent)
    result = run_seed(cfg, 0)
    assert result.visits.dtype == np.int32
    assert result.visits.shape == (cfg.episodes, 6)
    # Each primitive step enters exactly one state.
    trained, _, _ = load_agent(result.checkpoint)
    assert int(result.visits.sum()) == trained.primitive_steps


def test_run_seed_is_deterministic():
    cfg = tiny_chain_config()
    a = run_seed(cfg, 3)
    b = run_seed(cfg, 3)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.visits, b.visits)
    assert a.checkpoint == b.checkpoint


def test_different_seeds_differ():
    cfg = tiny_chain_config()
    a = run_seed(cfg, 0)
    b = run_seed(cfg, 1)
    assert a.checkpoint != b.checkpoint


def test_pretrain_episodes_counted_for_keydoor():
    cfg = tiny_keydoor_config()
    result = run_seed(cfg, 0)
    assert result.pretrain_episodes > 0
    assert len(result.rewards) == result.pretrain_episodes + cfg.episodes
    assert len(result.picks) == len(result.rewards)
    assert len(result.successes) == len(result.rewards)


def test_experiment_writes_expected_files(tmp_path):
    cfg = tiny_chain_config(out_dir=str(tmp_path))
    written = run_experiment(cfg)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "chain_hdqn_aggregate.csv",
        "chain_hdqn_seed0.ckpt",
        "chain_hdqn_seed0.csv",
        "chain_hdqn_seed1.ckpt",
        "chain_hdqn_seed1.csv",
    ]
    assert sorted(str(p) for p in written) == sorted(str(tmp_path / n) for n in names)


def test_seed_csv_schema_and_length(tmp_path):
    cfg = tiny_chain_config(out_dir=str(tmp_path))
    run_experiment(cfg)
    rows = read_rows(tmp_path / "chain_hdqn_seed0.csv")
    assert rows[0] == list(CHAIN_HEADER)
    assert len(rows) == 1 + cfg.episodes
    assert rows[1][0] == "0" and rows[1][1] == "1"
    assert rows[-1][1] == str(cfg.episodes)


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = tiny_chain_config(out_dir=str(tmp_path / "a"))
    cfg_b = tiny_chain_config(out_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("chain_hdqn_seed0.csv", "chain_hdqn_seed1.csv", "chain_hdqn_aggregate.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_parallel_matches_inline(tmp_path):
    run_experiment(tiny_chain_config(out_dir=str(tmp_path / "inline"), workers=1))
    run_experiment(tiny_chain_config(out_dir=str(tmp_path / "pool"), workers=2))
    for name in ("chain_hdqn_seed0.csv", "chain_hdqn_aggregate.csv"):
        assert (tmp_path / "inline" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()


def test_aggregate_mean_consistent_with_seeds(tmp_path):
    cfg = tiny_chain_config(out_dir=str(tmp_path))
    run_experiment(cfg)
    seed_rows = [read_rows(tmp_path / f"chain_hdqn_seed{k}.csv")[1:] for k in (0, 1)]
    agg_rows = read_rows(tmp_path / "chain_hdqn_aggregate.csv")
    assert agg_rows[0][0] == "episode"
    for i, row in enumerate(agg_rows[1:]):
        per_seed = [float(seed_rows[k][i][2]) for k in (0, 1)]
        want = sum(per_seed) / 2
        got = float(row[1])
        assert abs(got - want) < 1e-12


def test_aggregate_is_written_holding_one_row_block(tmp_path, monkeypatch):
    """From the last seed's CSV to the end of the aggregate CSV, the
    traced peak stays below one (seeds x episodes) float64 array: the
    aggregate is made and written one row block at a time. The seeds'
    own CSVs are not written here; only their columns feed the aggregate.
    """
    n_seeds, episodes = 12, 2**16
    cfg = default_config(agent="flat", seeds=tuple(range(n_seeds)), episodes=episodes)
    gen = np.random.default_rng(3)
    results = [
        SeedResult(seed, gen.integers(0, 2, episodes) * 1.0, gen.integers(0, 3, (episodes, 6)))
        for seed in cfg.seeds
    ]
    write_csv, seed_files = metrics.write_csv, []

    def traced_write_csv(path, header, blocks):
        if header != metrics.CHAIN_AGGREGATE_HEADER:
            seed_files.append(path)
            if len(seed_files) == n_seeds:
                tracemalloc.start()
            return
        write_csv(path, header, blocks)

    monkeypatch.setattr(metrics, "write_csv", traced_write_csv)
    try:
        written = write_outputs(cfg, results, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_rows(written[-1])) == episodes + 1
    assert len(seed_files) == n_seeds and 0 < peak < n_seeds * episodes * 8


def test_checkpoint_on_disk_is_loadable(tmp_path):
    cfg = tiny_chain_config(out_dir=str(tmp_path))
    run_experiment(cfg)
    agent, env, kind = read_agent(tmp_path / "chain_hdqn_seed0.ckpt")
    assert kind == "hdqn"
    assert isinstance(env, ChainEnv)
    assert agent.primitive_steps > 0


@pytest.mark.parametrize("config", [tiny_chain_config, tiny_keydoor_config])
def test_build_agent_builds_both_rings_from_the_config(config):
    cfg = config(d1_capacity=500, d2_capacity=300, d1_warmup=20, d2_warmup=7, batch_size=5)
    agent = build_agent(cfg, 0, build_env(cfg))
    assert (agent.d1.capacity, agent.d1.k, agent.d1.warmup) == (500, 5, 20)
    assert (agent.d2.capacity, agent.d2.k, agent.d2.warmup) == (300, 5, 7)


def test_a_read_agent_is_frozen():
    """A checkpoint holds no replay memories, so a read agent has none:
    run_episode raises before it changes any state, and the agent still
    evaluates."""
    cfg = tiny_chain_config(seeds=(0,))
    agent, _, _ = load_agent(run_seed(cfg, 0).checkpoint)
    assert agent.d1 is None and agent.d2 is None
    state = (agent.primitive_steps, agent.completed_options, agent.tracker.dump())
    assert state[0] > 0
    for phase in ("pretrain", "joint"):
        with pytest.raises(ValueError, match="frozen"):
            agent.run_episode(rng.stream(0, rng.ENV), phase)
    assert (agent.primitive_steps, agent.completed_options, agent.tracker.dump()) == state
    summary = evaluate_policy(agent, episodes=4, epsilon=0.1)
    assert summary.episodes == 4 and summary.goal_success


def test_flat_experiment(tmp_path):
    cfg = tiny_chain_config(agent="flat", out_dir=str(tmp_path))
    run_experiment(cfg)
    assert file_stem(cfg) == "chain_flat"
    rows = read_rows(tmp_path / "chain_flat_seed0.csv")
    assert rows[0] == list(CHAIN_HEADER)
    agent, _, kind = read_agent(tmp_path / "chain_flat_seed0.ckpt")
    assert kind == "flat"


def test_keydoor_experiment_csv(tmp_path):
    cfg = tiny_keydoor_config(out_dir=str(tmp_path))
    run_experiment(cfg)
    rows = read_rows(tmp_path / "keydoor_hdqn_seed0.csv")
    assert rows[0] == list(KEYDOOR_HEADER)
    goals = {row[3] for row in rows[1:]}
    assert goals == {"key", "door", "ladder_bl", "ladder_br"}
    episodes_logged = max(int(row[1]) for row in rows[1:])
    assert episodes_logged > cfg.episodes
    assert len(rows) == 1 + episodes_logged * 4


def test_evaluate_policy_summary():
    cfg = tiny_chain_config()
    agent = build_agent(cfg, 0, build_env(cfg))
    summary = evaluate_policy(agent, episodes=12, epsilon=0.5, seed=5)
    assert summary.episodes == 12
    assert len(summary.rewards) == 12
    assert summary.mean_reward == pytest.approx(sum(summary.rewards) / 12)
    lo, hi = summary.ci95
    assert lo <= summary.mean_reward <= hi
    assert set(summary.goal_success) <= {"s1", "s2", "s3", "s4", "s5", "s6"}
    assert summary.goal_success


def test_evaluate_policy_deterministic():
    cfg = tiny_chain_config()
    agent = build_agent(cfg, 0, build_env(cfg))
    a = evaluate_policy(agent, episodes=6, epsilon=0.3, seed=9)
    b = evaluate_policy(agent, episodes=6, epsilon=0.3, seed=9)
    assert np.array_equal(a.rewards, b.rewards)


def peeked_eval_streams(seed: int, episodes: int = 4) -> list:
    """The next draws of each evaluation episode's (env, pick) streams."""
    agent = FlatQAgent(ChainEnv())
    seen = []
    play = agent.eval_episode

    def spy(epsilon, env_gen, pick_gen):
        seen.append((copy.deepcopy(env_gen).random(8), copy.deepcopy(pick_gen).random(8)))
        return play(epsilon, env_gen, pick_gen)

    agent.eval_episode = spy
    evaluate_policy(agent, episodes=episodes, epsilon=0.5, seed=seed)
    return seen


def test_evaluation_does_not_replay_training_env_streams():
    seed = 40
    for i, (env_draws, pick_draws) in enumerate(peeked_eval_streams(seed)):
        for training_seed in (seed, seed + i):
            for stream_id in (rng.ENV, rng.EVAL):
                train = rng.stream(training_seed, stream_id).random(8)
                assert not np.array_equal(env_draws, train)
                assert not np.array_equal(pick_draws, train)


def test_adjacent_seeds_share_no_evaluation_stream():
    k = 9000
    a = {d.tobytes() for pair in peeked_eval_streams(k) for d in pair}
    b = {d.tobytes() for pair in peeked_eval_streams(k + 1) for d in pair}
    assert len(a) == len(b) == 8
    assert not a & b


def test_auto_workers_count_the_cpus_this_process_may_use(monkeypatch):
    """workers = 0 starts one worker per CPU in the process's affinity
    set, and per CPU of the machine only where no affinity can be read."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = tiny_chain_config(seeds=tuple(range(10)), workers=0)
    assert harness._resolve_workers(cfg) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._resolve_workers(cfg) == 10
