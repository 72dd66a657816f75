import numpy as np
import pytest

from hdqn import rng
from hdqn.agents import EpsilonSchedule, FlatQAgent, HierarchicalAgent
from hdqn.critic import Critic
from hdqn.envs.base import Environment, StepOutcome
from hdqn.envs.chain import ChainEnv
from hdqn.oracle import MdpModel, value_iteration


def chain_agent(seed=0, **overrides):
    env = ChainEnv()
    critic = Critic(env)
    params = dict(
        seed=seed,
        learning_rate=0.05,
        d1_capacity=10_000,
        d2_capacity=10_000,
        d1_warmup=32,
        d2_warmup=32,
        eps1=EpsilonSchedule(horizon=500),
        eps2=EpsilonSchedule(horizon=500),
    )
    params.update(overrides)
    agent = HierarchicalAgent(env.n_states, env.n_actions, critic.n_goals, **params)
    return env, critic, agent


def run_episodes(env, critic, agent, n, phase="joint", seed=0, count_visits=False):
    env_gen = rng.stream(seed, rng.ENV)
    return [
        agent.run_episode(env, critic, phase, env_gen, count_visits=count_visits)
        for _ in range(n)
    ]


def test_time_scale_separation():
    env, critic, agent = chain_agent()
    run_episodes(env, critic, agent, 100)
    assert agent.completed_options <= agent.primitive_steps
    assert len(agent.d1) == agent.primitive_steps  # under capacity
    assert len(agent.d2) == agent.completed_options


def test_goal_persistence_within_options():
    env, critic, agent = chain_agent()
    run_episodes(env, critic, agent, 50)
    current = None
    for t in agent.d1.oldest_first():
        if current is None:
            current = t.goal
        assert t.goal == current
        if t.episode_or_goal_terminal:
            current = None
    # Option boundaries must line up: one meta transition per boundary.
    boundaries = sum(t.episode_or_goal_terminal for t in agent.d1.oldest_first())
    assert boundaries == len(agent.d2)


def test_intrinsic_reward_gating():
    env, critic, agent = chain_agent()
    run_episodes(env, critic, agent, 50)
    for t in agent.d1.oldest_first():
        reached = critic.reached(t.goal, t.next_state)
        assert (t.intrinsic_reward > 0) == reached
        if reached:
            assert t.episode_or_goal_terminal


def test_meta_transitions_record_option_outcomes():
    env, critic, agent = chain_agent()
    traces = run_episodes(env, critic, agent, 30)
    picks = [g for tr in traces for g in tr.goal_picks]
    stored = [t.goal for t in agent.d2.oldest_first()]
    assert stored == picks
    # The last option of every episode ends with the terminal flag set.
    terminals = [t.terminal for t in agent.d2.oldest_first()]
    assert sum(terminals) == len(traces)


def test_tracker_counts_option_attempts():
    env, critic, agent = chain_agent()
    traces = run_episodes(env, critic, agent, 40)
    n_options = sum(len(tr.goal_picks) for tr in traces)
    recorded = sum(
        min(agent.tracker.attempts(g), 10**9) for g in range(agent.n_goals)
    )
    # window is 100 per goal; stay under it for an exact count
    assert n_options == recorded or any(
        agent.tracker.attempts(g) == agent.tracker.window for g in range(agent.n_goals)
    )


def test_pretrain_pins_meta_epsilon_and_clock():
    env, critic, agent = chain_agent()
    run_episodes(env, critic, agent, 50, phase="pretrain")
    assert agent.joint_steps == 0  # meta anneal clock frozen
    assert agent.meta_decisions > 0
    assert agent.primitive_steps > 0  # controller clock still runs
    run_episodes(env, critic, agent, 10, phase="joint")
    assert agent.joint_steps > 0


def test_controller_epsilon_schedule_bound():
    env, critic, agent = chain_agent(eps1=EpsilonSchedule(horizon=100))
    # No attempts yet: adaptive term is 1, the schedule dominates later.
    assert agent.controller_epsilon(0) == 1.0
    agent.primitive_steps = 50
    assert agent.controller_epsilon(0) == pytest.approx(0.55)
    agent.primitive_steps = 100
    assert agent.controller_epsilon(0) == pytest.approx(0.1)
    # A mastered goal anneals ahead of the schedule.
    agent.primitive_steps = 0
    for _ in range(20):
        agent.tracker.record(3, True)
    assert agent.controller_epsilon(3) == pytest.approx(0.1)
    assert agent.controller_epsilon(0) == 1.0


def test_phase_validation():
    env, critic, agent = chain_agent()
    with pytest.raises(ValueError):
        agent.run_episode(env, critic, "warmup", rng.stream(0, rng.ENV))


def test_no_update_below_warmup():
    env, critic, agent = chain_agent(d1_warmup=10, d2_warmup=10)
    before = agent.q1.as_array().copy()
    for _ in range(9):
        agent.d1.push((0, 0, 0, 0.0, 1, False))
    agent._update(agent.q1, agent.d1, 10, rng.stream(0, rng.REPLAY_D1))
    assert np.array_equal(agent.q1.as_array(), before)
    agent.d1.push((0, 0, 0, 1.0, 1, True))
    agent._update(agent.q1, agent.d1, 10, rng.stream(0, rng.REPLAY_D1))
    assert not np.array_equal(agent.q1.as_array(), before)


def test_chain_hdqn_learns_with_goal_chaining():
    """With a short budget and a hot learning rate the two-level agent
    should already beat the myopic 0.01 payoff on average."""
    env, critic, agent = chain_agent(
        learning_rate=0.05,
        eps1=EpsilonSchedule(horizon=4000),
        eps2=EpsilonSchedule(horizon=4000),
    )
    traces = run_episodes(env, critic, agent, 3000, seed=11)
    tail = [tr.total_reward for tr in traces[-500:]]
    assert np.mean(tail) > 0.05


def test_trace_visit_counts():
    env, critic, agent = chain_agent()
    traces = run_episodes(env, critic, agent, 5, count_visits=True)
    for tr in traces:
        assert tr.state_visits is not None
        assert sum(tr.state_visits) == tr.steps
        assert tr.state_visits[0] == 1  # exactly one terminal entry
        assert tr.total_reward in (0.01, 1.0)


def test_eval_episode_mutates_nothing():
    env, critic, agent = chain_agent()
    run_episodes(env, critic, agent, 20)
    before = (
        agent.q1.as_array().copy(),
        agent.q2.as_array().copy(),
        len(agent.d1),
        len(agent.d2),
        agent.tracker.dump(),
        agent.primitive_steps,
        agent.meta_decisions,
    )
    tr = agent.eval_episode(
        env, critic, 0.1, rng.stream(99, rng.ENV), rng.stream(99, rng.EVAL)
    )
    after = (
        agent.q1.as_array(),
        agent.q2.as_array(),
        len(agent.d1),
        len(agent.d2),
        agent.tracker.dump(),
        agent.primitive_steps,
        agent.meta_decisions,
    )
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    assert tr.total_reward in (0.01, 1.0)


def test_eval_episode_deterministic():
    env, critic, agent = chain_agent()
    run_episodes(env, critic, agent, 20)
    a = agent.eval_episode(env, critic, 0.1, rng.stream(5, rng.ENV), rng.stream(5, rng.EVAL))
    b = agent.eval_episode(env, critic, 0.1, rng.stream(5, rng.ENV), rng.stream(5, rng.EVAL))
    assert (a.total_reward, a.steps, a.goal_picks) == (b.total_reward, b.steps, b.goal_picks)


def test_identical_seeds_identical_agents():
    env1, critic1, agent1 = chain_agent(seed=3)
    env2, critic2, agent2 = chain_agent(seed=3)
    run_episodes(env1, critic1, agent1, 200, seed=3)
    run_episodes(env2, critic2, agent2, 200, seed=3)
    assert np.array_equal(agent1.q1.as_array(), agent2.q1.as_array())
    assert np.array_equal(agent1.q2.as_array(), agent2.q2.as_array())
    assert agent1.primitive_steps == agent2.primitive_steps


def test_mlp_backend_smoke():
    env = ChainEnv()
    critic = Critic(env)
    agent = HierarchicalAgent(
        env.n_states,
        env.n_actions,
        critic.n_goals,
        backend="mlp",
        learning_rate=1e-3,
        hidden=8,
        d1_warmup=16,
        d2_warmup=16,
        eps2=EpsilonSchedule(horizon=100),
    )
    env_gen = rng.stream(0, rng.ENV)
    for _ in range(30):
        agent.run_episode(env, critic, "joint", env_gen)
    assert agent.q1.train_steps > 0
    assert agent.q2.train_steps > 0
    assert np.all(np.isfinite(agent.q1.flat_params()))


def test_unknown_backend_rejected():
    env = ChainEnv()
    critic = Critic(env)
    with pytest.raises(ValueError):
        HierarchicalAgent(6, 2, 6, backend="transformer")


# -- flat baseline -----------------------------------------------------


class CorridorEnv(Environment):
    """3 states in a row; right from the middle pays 1 and terminates."""

    n_states = 3
    n_actions = 2

    def __init__(self):
        self._s = 0
        self._done = True

    def reset(self, gen):
        self._s = 0
        self._done = False
        return 0

    def step(self, action, gen):
        self._require_active()
        self._check_action(action)
        if action == 0:
            self._s = max(0, self._s - 1)
        else:
            self._s += 1
        if self._s == 2:
            self._done = True
            return StepOutcome(2, 1.0, True)
        return StepOutcome(self._s, 0.0, False)


def corridor_model() -> MdpModel:
    P = np.zeros((3, 2, 3))
    R = np.zeros((3, 2, 3))
    P[0, 0, 0] = P[1, 0, 0] = 1.0
    P[0, 1, 1] = P[1, 1, 2] = 1.0
    R[1, 1, 2] = 1.0
    P[2, :, 2] = 1.0
    return MdpModel(P, R, np.array([False, False, True]))


def test_flat_agent_matches_oracle_on_corridor():
    env = CorridorEnv()
    agent = FlatQAgent(
        3, 2, seed=1, learning_rate=0.5, gamma=0.9, eps=EpsilonSchedule(horizon=300)
    )
    env_gen = rng.stream(1, rng.ENV)
    for _ in range(400):
        agent.run_episode(env, env_gen)
    oracle = value_iteration(corridor_model(), gamma=0.9)
    learned = agent.q.as_array()
    np.testing.assert_allclose(learned, oracle.q, atol=1e-3)
    assert list(learned.argmax(axis=1)[:2]) == list(oracle.policy[:2])


def test_flat_greedy_rollout_deterministic():
    env = CorridorEnv()
    agent = FlatQAgent(3, 2, seed=0, learning_rate=0.5, eps=EpsilonSchedule(horizon=50))
    env_gen = rng.stream(0, rng.ENV)
    for _ in range(100):
        agent.run_episode(env, env_gen)
    a = agent.eval_episode(env, 0.0, rng.stream(1, rng.ENV), rng.stream(1, rng.EVAL))
    b = agent.eval_episode(env, 0.0, rng.stream(2, rng.ENV), rng.stream(2, rng.EVAL))
    assert a.steps == b.steps == 2
    assert a.total_reward == b.total_reward == 1.0


def test_flat_agent_on_chain_reward_support():
    env = ChainEnv()
    agent = FlatQAgent(6, 2, seed=2, learning_rate=0.1, eps=EpsilonSchedule(horizon=1000))
    env_gen = rng.stream(2, rng.ENV)
    traces = [agent.run_episode(env, env_gen, count_visits=True) for _ in range(300)]
    for tr in traces:
        assert tr.total_reward in (0.01, 1.0)
        assert tr.goal_picks == []
    assert agent.primitive_steps == sum(tr.steps for tr in traces)
