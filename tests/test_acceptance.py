"""End-to-end acceptance checks for the shipped experiment suite.

Each check prints exactly one PASS/FAIL line (visible with `pytest -s`;
captured output is replayed on failure). The training fixtures run the
real shipped configs once per session, so expect several minutes of
wall time on a single CPU.
"""
from __future__ import annotations

import pathlib
import time

import numpy as np
import pytest
from scipy import stats

from hdqn import oracle, rng
from hdqn.agents import EpsilonSchedule
from hdqn.checkpoint import load_agent
from hdqn.config import load_config
from hdqn.envs.chain import ChainEnv
from hdqn.harness import evaluate_policy, run_all_seeds, run_experiment
from hdqn.metrics import trailing_mean
from hdqn.replay import ReplayBuffer

from helpers import gradcheck_worst_rel_err, hdqn_agent, stored, stored_controller

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
# Frozen-policy evaluation of the key-door checkpoints: the defaults of
# `hdqn eval --episodes/--epsilon`.
EVAL_EPISODES = 100
EVAL_EPSILON = 0.1


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{label}: {detail}"


def final_5k_mean(result) -> float:
    return float(result.rewards[-5000:].mean())


@pytest.fixture(scope="module")
def chain_hdqn():
    cfg = load_config(CONFIGS / "chain_hdqn.cfg")
    t0 = time.perf_counter()
    results = run_all_seeds(cfg)
    return cfg, results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def chain_flat():
    cfg = load_config(CONFIGS / "chain_flat.cfg")
    t0 = time.perf_counter()
    results = run_all_seeds(cfg)
    return cfg, results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def keydoor():
    cfg = load_config(CONFIGS / "keydoor_hdqn.cfg")
    t0 = time.perf_counter()
    results = run_all_seeds(cfg)
    return cfg, results, time.perf_counter() - t0


def test_chain_hierarchical_reward_band(chain_hdqn):
    cfg, results, elapsed = chain_hdqn
    per_seed = [final_5k_mean(r) for r in results]
    grand = float(np.mean(per_seed))
    ok = 0.10 <= grand <= 0.21 and elapsed < 300
    report(
        "chain hierarchical final-5k reward in [0.10, 0.21]",
        ok,
        f"mean {grand:.4f} over {len(per_seed)} seeds, "
        f"range [{min(per_seed):.4f}, {max(per_seed):.4f}], {elapsed:.0f}s",
    )


def test_chain_flat_baseline_stuck_low(chain_flat):
    cfg, results, elapsed = chain_flat
    per_seed = [final_5k_mean(r) for r in results]
    hits = sum(m <= 0.05 for m in per_seed)
    ok = hits >= 8 and elapsed < 120
    report(
        "chain flat baseline final-5k reward <= 0.05 on >= 8/10 seeds",
        ok,
        f"{hits}/10 seeds, per-seed max {max(per_seed):.4f}, {elapsed:.0f}s",
    )


def test_chain_visits_migrate_toward_far_states(chain_hdqn):
    cfg, results, _ = chain_hdqn
    quarter = cfg.episodes // 4
    hits = 0
    for r in results:
        up = True
        for sid in (3, 4, 5):  # s4, s5, s6
            smoothed = trailing_mean(r.visits[:, sid].astype(np.float64), 1000)
            up = up and smoothed[-quarter:].mean() > smoothed[:quarter].mean()
        hits += up
    ok = hits >= 8
    report(
        "chain visits to s4,s5,s6 rise from first to final quarter on >= 8/10 seeds",
        ok,
        f"{hits}/10 seeds",
    )


def test_oracle_value_and_sampled_q_learning_agree():
    model = oracle.chain_model()
    sol = oracle.value_iteration(model)  # undiscounted: episodes absorb
    v_s2 = float(sol.v[oracle.augmented_index(2, False)])
    value_ok = abs(v_s2 - 0.208) <= 0.001

    # Tabular Q-learning on the same augmented model: synchronous sampled
    # backups over every (s, a) pair with a polynomial step size. One
    # fixed generator makes the outcome reproducible. The next states of
    # `block` iterations are drawn at once: the same uniforms in the same
    # order as one (n_s, n_a) draw per iteration, so the same q.
    P, R, terminal = model
    n_s, n_a = P.shape[0], P.shape[1]
    cdf = P.cumsum(axis=2)
    rows = np.arange(n_s)[:, None]
    cols = np.arange(n_a)[None, :]
    gen = np.random.default_rng(7)
    q = np.zeros((n_s, n_a))
    iterations, block = 1_000_000, 4096
    for start in range(0, iterations, block):
        nxt_block = (gen.random((min(block, iterations - start), n_s, n_a, 1)) > cdf).sum(axis=3)
        ends, rewards = terminal[nxt_block], R[rows, cols, nxt_block]
        for j, nxt in enumerate(nxt_block):
            v_next = np.where(ends[j], 0.0, q.max(axis=1)[nxt])
            q += (start + j + 1.0) ** -0.85 * (rewards[j] + v_next - q)
            q[terminal] = 0.0
    q_err = float(np.abs(q - sol.q)[~terminal].max())
    ok = value_ok and q_err < 1e-3
    report(
        "oracle V*(s2)=0.208±0.001 and sampled Q-learning within 1e-3 of Q*",
        ok,
        f"V*(s2) {v_s2:.6f}, max |Q - Q*| {q_err:.2e}",
    )


def test_gradient_check():
    worst = gradcheck_worst_rel_err(n_instances=100, seed=0, h=1e-5)
    ok = worst < 1e-4
    report(
        "approximator gradients match central differences (rel err < 1e-4)",
        ok,
        f"worst rel err {worst:.2e} over 100 instances",
    )


def test_keydoor_learning_and_goal_shift(keydoor):
    cfg, results, elapsed = keydoor
    passing = 0
    details = []
    for r in results:
        agent, _, _ = load_agent(r.checkpoint)
        summary = evaluate_policy(
            agent,
            episodes=EVAL_EPISODES,
            epsilon=EVAL_EPSILON,
            seed=9000 + r.seed,
        )
        frac400 = float((summary.rewards == 400.0).mean())
        eval_ok = summary.mean_reward >= 100.0 and frac400 >= 0.2

        key = r.goal_names.index("key")
        d = len(r.rewards) // 10
        first_rate = r.successes[:d, key].sum() / max(r.picks[:d, key].sum(), 1)
        last_rate = r.successes[-d:, key].sum() / max(r.picks[-d:, key].sum(), 1)
        key_ok = last_rate > first_rate

        p = r.picks[:d].sum(axis=0).astype(np.float64)
        qd = r.picks[-d:].sum(axis=0).astype(np.float64)
        tv = 0.5 * float(np.abs(p / p.sum() - qd / qd.sum()).sum())
        shift_ok = tv >= 0.2

        passing += eval_ok and key_ok and shift_ok
        details.append(
            f"seed{r.seed}: eval {summary.mean_reward:.0f}/{frac400:.2f}, "
            f"key {first_rate:.2f}->{last_rate:.2f}, tv {tv:.2f}"
        )
    ok = passing >= 4 and elapsed < 1800
    report(
        "key-door eval >= 100 with >= 20% full-score, key success rises, "
        "picks shift (tv >= 0.2) on >= 4/5 seeds",
        ok,
        f"{passing}/5 seeds, {elapsed:.0f}s; " + "; ".join(details),
    )


def test_invariant_suites():
    # FIFO eviction
    buf = ReplayBuffer(3, 1, 1, np.random.default_rng(3))
    for i in range(7):
        buf.push(i, i, 0.0, 0.99)
    fifo_ok = stored(buf)["cell"].tolist() == [4, 5, 6] and len(buf) == 3

    # sampling uniformity
    buf = ReplayBuffer(10, 100, 1, np.random.default_rng(3))
    for i in range(10):
        buf.push(i, i, 0.0, 0.99)
    counts = np.zeros(10)
    for _ in range(1000):
        counts += np.bincount(buf.sample()[0], minlength=10)
    p = stats.chisquare(counts).pvalue
    uniform_ok = p > 0.01

    # schedule monotonicity and endpoints
    sch = EpsilonSchedule(floor=0.1, horizon=50_000)
    grid = [sch.value(t) for t in range(0, 60_001, 500)]
    sched_ok = (
        grid[0] == 1.0
        and abs(sch.value(50_000) - 0.1) < 1e-12
        and sch.value(60_000) == sch.value(50_000)
        and all(a >= b for a, b in zip(grid, grid[1:]))
    )

    # time-scale separation and goal persistence on a live agent
    agent = hdqn_agent(
        ChainEnv(),
        seed=5,
        learning_rate=0.05,
        eps1=EpsilonSchedule(horizon=2000),
        eps2=EpsilonSchedule(horizon=2000),
    )
    env_gen = rng.stream(5, rng.ENV)
    for _ in range(200):
        agent.run_episode(env_gen)
    scale_ok = (
        len(agent.d2) <= len(agent.d1)
        and agent.completed_options <= agent.primitive_steps
    )
    # goal persists from one option boundary to the next, and boundaries
    # line up one-to-one with recorded meta transitions
    persist_ok = True
    current = None
    boundaries = 0
    d1 = stored_controller(agent)
    for g, disc in zip(d1["g"], d1["disc"]):
        if current is None:
            current = g
        persist_ok = persist_ok and g == current
        if disc == 0.0:
            current = None
            boundaries += 1
    persist_ok = persist_ok and boundaries == len(agent.d2)

    ok = fifo_ok and uniform_ok and sched_ok and scale_ok and persist_ok
    report(
        "invariants: FIFO eviction, sampling uniformity, schedule shape, "
        "time-scale separation, goal persistence",
        ok,
        f"chi2 p {p:.3f}, |D1| {len(agent.d1)}, |D2| {len(agent.d2)}",
    )


def test_csv_determinism(tmp_path):
    cfg_a = load_config(
        CONFIGS / "chain_hdqn.cfg",
        overrides={"seeds": (0, 1), "episodes": 2000, "out_dir": str(tmp_path / "a")},
    )
    cfg_b = load_config(
        CONFIGS / "chain_hdqn.cfg",
        overrides={"seeds": (0, 1), "episodes": 2000, "out_dir": str(tmp_path / "b")},
    )
    paths_a = sorted(pathlib.Path(p) for p in run_experiment(cfg_a))
    paths_b = sorted(pathlib.Path(p) for p in run_experiment(cfg_b))
    same = [
        pa.name == pb.name and pa.read_bytes() == pb.read_bytes()
        for pa, pb in zip(paths_a, paths_b)
    ]
    ok = len(paths_a) == len(paths_b) == 5 and all(same)
    report(
        "identical config and seeds give byte-identical outputs",
        ok,
        f"{sum(same)}/{len(same)} files identical",
    )
