from types import SimpleNamespace

import numpy as np
import pytest

from helpers import hdqn_agent, stored, stored_controller
from hdqn import rng
from hdqn.agents import EpsilonSchedule, FlatQAgent
from hdqn.envs.base import Environment
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv
from hdqn.oracle import MdpModel, value_iteration


def chain_agent(seed=0, **overrides):
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
    return hdqn_agent(ChainEnv(), **params)


def run_episodes(agent, n, phase="joint", seed=0):
    env_gen = rng.stream(seed, rng.ENV)
    return [agent.run_episode(env_gen, phase=phase) for _ in range(n)]


def test_time_scale_separation():
    agent = chain_agent()
    run_episodes(agent, 100)
    assert agent.completed_options <= agent.primitive_steps
    assert len(agent.d1) == agent.primitive_steps  # under capacity
    assert len(agent.d2) == agent.completed_options


def test_goal_persistence_within_options():
    agent = chain_agent()
    run_episodes(agent, 50)
    d1 = stored_controller(agent)
    ends = d1["disc"] == 0.0
    current = None
    for g, end in zip(d1["g"], ends):
        if current is None:
            current = g
        assert g == current
        if end:
            current = None
    # Option boundaries must line up: one meta transition per boundary.
    assert ends.sum() == len(agent.d2)
    # The bootstrap row of a controller transition keeps its goal.
    assert np.array_equal(d1["g_next"], d1["g"])


def test_intrinsic_reward_gating():
    agent = chain_agent()
    run_episodes(agent, 50)
    d1 = stored_controller(agent)
    for r, row_next, disc in zip(d1["r"], d1["row_next"], d1["disc"]):
        reached = agent.critic.hits[row_next]
        assert (r > 0) == reached
        if reached:
            assert disc == 0.0


def test_keydoor_rings_store_the_update_columns():
    """Past both warm-ups on a small key-door room, every stored column
    matches the steps the environment took. A controller cell splits
    into the row the step started from, with the option's goal, and the
    action taken; its bootstrap row keeps that goal. A meta cell splits
    into the option's start state and goal. disc is exactly 0.0 where
    the goal was reached or the episode ended (for the meta level, where
    the episode ended) and exactly gamma elsewhere."""
    env = KeyDoorEnv("#######/#.A.LL#/#.SS..#/#K...D#/#######", step_limit=40)
    gamma = 0.9
    agent = hdqn_agent(
        env, seed=2, learning_rate=0.1, gamma=gamma, d1_warmup=32, d2_warmup=8, batch_size=8
    )
    steps = []  # (s, a, s', r, done) per primitive step
    reset, step = env.reset, env.step
    current = []

    def recording_reset():
        current[:] = [reset()]
        return current[0]

    def recording_step(action, gen):
        s_next, r, done = step(action, gen)
        steps.append((current[0], action, s_next, r, done))
        current[0] = s_next
        return s_next, r, done

    env.reset, env.step = recording_reset, recording_step
    env_gen = rng.stream(2, rng.ENV)
    traces = [agent.run_episode(env_gen) for _ in range(30)]
    assert len(agent.d1) == len(steps) > 2 * agent.d1.warmup
    assert len(agent.d2) > 2 * agent.d2.warmup
    assert np.any(agent.q1.table != 0.0) and np.any(agent.q2.table != 0.0)

    d1, d2 = stored_controller(agent), stored(agent.d2)
    picks = iter([g for tr in traces for g in tr.goal_picks])
    options = []  # (s0, g, s_end, F, done) per option
    g = None
    for i, (s, a, s_next, r, done) in enumerate(steps):
        if g is None:
            g, s0, f = next(picks), s, 0.0
        f += r
        reached = agent.critic.hits[s_next * agent.n_goals + g]
        assert (d1["s"][i], d1["g"][i], d1["a"][i]) == (s, g, a)
        assert (d1["s_next"][i], d1["g_next"][i]) == (s_next, g)
        assert d1["disc"][i] == (0.0 if reached or done else gamma)
        if reached or done:
            options.append((s0, g, s_next, f, done))
            g = None
    assert set(d1["disc"].tolist()) == {0.0, gamma}
    s0, g, s_end, f, done = (np.array(col) for col in zip(*options))
    assert len(s0) == len(agent.d2)
    assert np.array_equal(d2["cell"], s0 * agent.n_goals + g)
    assert np.array_equal(d2["row_next"], s_end)
    assert np.array_equal(d2["r"], f)
    assert np.array_equal(d2["disc"], np.where(done, 0.0, gamma))
    assert set(d2["disc"].tolist()) == {0.0, gamma}


def test_meta_transitions_record_option_outcomes():
    agent = chain_agent()
    traces = run_episodes(agent, 30)
    picks = [g for tr in traces for g in tr.goal_picks]
    d2 = stored(agent.d2)
    # The meta level's action is its goal choice.
    assert (d2["cell"] % agent.n_goals).tolist() == picks
    # The last option of every episode ends with no bootstrap.
    assert (d2["disc"] == 0.0).sum() == len(traces)


def test_tracker_counts_option_attempts():
    """Each goal's window holds the outcomes of its latest options, up to
    the window's length, in the order the options ran."""
    agent = chain_agent()
    traces = run_episodes(agent, 40)
    picks = [g for tr in traces for g in tr.goal_picks]
    outcomes = [ok for tr in traces for ok in tr.goal_successes]
    windows = agent.tracker.dump()
    assert sum(map(len, windows)) > 0
    for g, window in enumerate(windows):
        of_goal = [ok for pick, ok in zip(picks, outcomes) if pick == g]
        assert window == of_goal[-agent.tracker.window :]


def test_pretrain_pins_meta_epsilon_and_clock():
    agent = chain_agent()
    run_episodes(agent, 50, phase="pretrain")
    assert agent.joint_steps == 0  # meta anneal clock frozen
    assert agent.completed_options > 0
    assert agent.primitive_steps > 0  # controller clock still runs
    run_episodes(agent, 10, phase="joint")
    assert agent.joint_steps > 0


def test_controller_epsilon_schedule_bound():
    agent = chain_agent(eps1=EpsilonSchedule(horizon=100))
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
    agent = chain_agent()
    with pytest.raises(ValueError):
        agent.run_episode(rng.stream(0, rng.ENV), phase="warmup")


def record_updates(agent, episodes):
    """Run chain episodes and record the memory fills at every step (d1
    has the step's own transition by then, d2 only the options that
    ended before it), the fills each update sees, and the step at which
    each episode starts."""
    d1, d2 = agent.d1, agent.d2
    step = agent.env.step
    fills = []

    def recording_step(action, gen):
        fills.append((len(d1) + 1, len(d2)))
        return step(action, gen)

    seen = {"q1": [], "q2": []}

    def recording_train(name, vf, buffer):
        train = vf.train_on

        def train_on(columns):
            seen[name].append(len(buffer))
            return train(columns)

        vf.train_on = train_on

    agent.env.step = recording_step
    recording_train("q1", agent.q1, d1)
    recording_train("q2", agent.q2, d2)
    env_gen = rng.stream(0, rng.ENV)
    starts = []
    for _ in range(episodes):
        starts.append(len(fills))
        agent.run_episode(env_gen)
    return fills, seen, starts


def test_no_update_below_warmup():
    """Each level trains once per primitive step from the first step at
    which its memory holds its warm-up's worth of transitions, and never
    before."""
    agent = chain_agent(d1_warmup=10, d2_warmup=10)
    fills, seen, _ = record_updates(agent, 30)
    assert fills[0] == (1, 0) and len(agent.d2) > 10
    assert seen["q1"] == [f1 for f1, _ in fills if f1 >= 10]
    assert seen["q2"] == [f2 for _, f2 in fills if f2 >= 10]
    assert seen["q1"][0] == 10 and seen["q2"][0] == 10


def test_d2_warmup_reached_mid_episode():
    """d2 reaches its warm-up when an option ends inside an episode, and
    the meta level trains from the next step on, not from the next
    episode."""
    agent = chain_agent(d1_warmup=10, d2_warmup=30)
    fills, seen, starts = record_updates(agent, 30)
    ends = starts[1:] + [len(fills)]
    assert any(fills[a][1] < 30 <= fills[b - 1][1] for a, b in zip(starts, ends))
    assert seen["q2"] == [f2 for _, f2 in fills if f2 >= 30]
    assert seen["q2"][0] == 30
    assert seen["q1"] == [f1 for f1, _ in fills if f1 >= 10]


def test_keydoor_step_clocks_and_warmups_across_phases():
    """On key-door, over pretrain and then joint episodes: every read of a
    step clock at an option's start (controller_epsilon, and eps2 in the
    joint phase) sees primitive_steps equal to the steps of all earlier
    options and joint_steps equal to those taken in joint episodes. After
    each episode the clocks equal the traces' summed steps, joint
    episodes only for joint_steps. Each level trains at every step from
    the first at which its memory holds 10 transitions, and never
    before; on this seed both memories get there within an episode."""
    env = KeyDoorEnv("#######/#.A.LL#/#.SS..#/#K...D#/#######", step_limit=40)
    agent = hdqn_agent(env, seed=1, learning_rate=0.1, d1_warmup=10, d2_warmup=10, batch_size=8)
    d1, d2 = agent.d1, agent.d2
    taken = {"steps": 0, "joint": 0, "phase": None}
    fills, reads = [], []
    step = env.step

    def counting_step(action, gen):
        fills.append((len(d1) + 1, len(d2)))
        taken["steps"] += 1
        taken["joint"] += taken["phase"] == "joint"
        return step(action, gen)

    def read(name, t=None):
        reads.append((name, t, agent.primitive_steps, agent.joint_steps, taken["steps"], taken["joint"]))

    controller_epsilon, eps2_value = agent.controller_epsilon, agent.eps2.value

    def reading_controller_epsilon(goal):
        read("eps1")
        return controller_epsilon(goal)

    def reading_eps2_value(t):
        read("eps2", t)
        return eps2_value(t)

    seen = {"q1": [], "q2": []}

    def recording_train(name, vf, buffer):
        train = vf.train_on

        def train_on(columns):
            seen[name].append(len(buffer))
            return train(columns)

        vf.train_on = train_on

    recording_train("q1", agent.q1, d1)
    recording_train("q2", agent.q2, d2)
    env.step = counting_step
    agent.controller_epsilon = reading_controller_epsilon
    agent.eps2 = SimpleNamespace(value=reading_eps2_value)

    env_gen = rng.stream(1, rng.ENV)
    steps = joint_steps = options = 0
    episode_starts = []
    for phase in ("pretrain",) * 15 + ("joint",) * 15:
        taken["phase"] = phase
        episode_starts.append(len(fills))
        trace = agent.run_episode(env_gen, phase=phase)
        steps += trace.steps
        joint_steps += trace.steps if phase == "joint" else 0
        options += len(trace.goal_picks)
        assert (agent.primitive_steps, agent.joint_steps) == (steps, joint_steps)
    assert 0 < joint_steps < steps and options > 30  # episodes run several options
    assert [r[0] for r in reads].count("eps1") == options
    assert 0 < [r[0] for r in reads].count("eps2") < options  # joint options only
    for name, t, primitive, joint, taken_steps, taken_joint in reads:
        assert (primitive, joint) == (taken_steps, taken_joint)
        assert t is None or t == joint
    assert seen["q1"] == [f1 for f1, _ in fills if f1 >= 10]
    assert seen["q2"] == [f2 for _, f2 in fills if f2 >= 10]
    assert seen["q1"][0] == 10 and seen["q2"][0] == 10
    for level in (0, 1):
        first_update = next(i for i, fill in enumerate(fills) if fill[level] >= 10)
        assert first_update not in episode_starts


@pytest.mark.parametrize("gamma", [float("nan"), -0.1, 1.01, float("inf")])
def test_agents_reject_a_discount_outside_the_unit_interval(gamma):
    for build in (FlatQAgent, hdqn_agent):
        with pytest.raises(ValueError, match="gamma"):
            build(ChainEnv(), gamma=gamma)
    for ok in (0.0, 1.0):
        assert FlatQAgent(ChainEnv(), gamma=ok).gamma == hdqn_agent(ChainEnv(), gamma=ok).gamma


@pytest.mark.parametrize("level", ["d1", "d2"])
def test_agent_rejects_a_warmup_above_its_capacity(level):
    with pytest.raises(ValueError, match="warm-up"):
        chain_agent(**{f"{level}_capacity": 10, f"{level}_warmup": 11})
    assert len(getattr(chain_agent(**{f"{level}_capacity": 10, f"{level}_warmup": 10}), level)) == 0


def test_both_rings_sample_at_the_batch_size():
    """The rings own the minibatch size and its check: a batch_size below
    1 is rejected where the rings are built, and both sample at it."""
    for k in (0, -1):
        with pytest.raises(ValueError, match="minibatch size"):
            chain_agent(batch_size=k)
    agent = chain_agent(batch_size=5, d1_warmup=1, d2_warmup=1)
    run_episodes(agent, 3)
    assert not hasattr(agent, "batch_size")
    for ring in (agent.d1, agent.d2):
        assert ring.k == 5
        assert [len(column) for column in ring.sample()] == [5] * 4


def test_chain_hdqn_learns_with_goal_chaining():
    """With a short budget and a hot learning rate the two-level agent
    should already beat the myopic 0.01 payoff on average."""
    agent = chain_agent(
        learning_rate=0.05,
        eps1=EpsilonSchedule(horizon=4000),
        eps2=EpsilonSchedule(horizon=4000),
    )
    traces = run_episodes(agent, 3000, seed=11)
    tail = [tr.total_reward for tr in traces[-500:]]
    assert np.mean(tail) > 0.05


def test_trace_visit_counts():
    """The chain counts the states each episode enters: one per step,
    exactly one terminal entry, and the payoff is 1.0 iff s6 was entered."""
    agent = chain_agent()
    env_gen = rng.stream(0, rng.ENV)
    for _ in range(30):
        tr = agent.run_episode(env_gen)
        visits = agent.env.visits
        assert sum(visits) == tr.steps
        assert visits[0] == 1
        assert tr.total_reward == (1.0 if visits[5] else 0.01)


def test_eval_episode_mutates_nothing():
    agent = chain_agent()
    run_episodes(agent, 20)
    before = (
        agent.q1.table.copy(),
        agent.q2.table.copy(),
        len(agent.d1),
        len(agent.d2),
        agent.tracker.dump(),
        agent.primitive_steps,
        agent.completed_options,
    )
    tr = agent.eval_episode(0.1, rng.stream(99, rng.ENV), rng.stream(99, rng.EVAL))
    after = (
        agent.q1.table,
        agent.q2.table,
        len(agent.d1),
        len(agent.d2),
        agent.tracker.dump(),
        agent.primitive_steps,
        agent.completed_options,
    )
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]
    assert tr.total_reward in (0.01, 1.0)


def test_eval_episode_deterministic():
    agent = chain_agent()
    run_episodes(agent, 20)
    a = agent.eval_episode(0.1, rng.stream(5, rng.ENV), rng.stream(5, rng.EVAL))
    b = agent.eval_episode(0.1, rng.stream(5, rng.ENV), rng.stream(5, rng.EVAL))
    assert (a.total_reward, a.steps, a.goal_picks) == (b.total_reward, b.steps, b.goal_picks)


def test_identical_seeds_identical_agents():
    agent1 = chain_agent(seed=3)
    agent2 = chain_agent(seed=3)
    run_episodes(agent1, 200, seed=3)
    run_episodes(agent2, 200, seed=3)
    assert np.array_equal(agent1.q1.table, agent2.q1.table)
    assert np.array_equal(agent1.q2.table, agent2.q2.table)
    assert agent1.primitive_steps == agent2.primitive_steps


def test_mlp_backend_smoke():
    agent = hdqn_agent(
        ChainEnv(),
        backend="mlp",
        learning_rate=1e-3,
        hidden=8,
        d1_warmup=16,
        d2_warmup=16,
        eps2=EpsilonSchedule(horizon=100),
    )
    env_gen = rng.stream(0, rng.ENV)
    for _ in range(30):
        agent.run_episode(env_gen)
    assert agent.q1.train_steps > 0
    assert agent.q2.train_steps > 0
    assert all(np.all(np.isfinite(p)) for p in agent.q1.params.values())


# -- flat baseline -----------------------------------------------------


class CorridorEnv(Environment):
    """3 states in a row; right from the middle pays 1 and terminates."""

    n_states = 3
    n_actions = 2

    def __init__(self):
        self._s = 0
        self._done = True

    def reset(self):
        self._s = 0
        self._done = False
        return 0

    def step(self, action, gen):
        if self._done:
            raise RuntimeError("step() on a finished or unreset episode")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} out of range")
        if action == 0:
            self._s = max(0, self._s - 1)
        else:
            self._s += 1
        if self._s == 2:
            self._done = True
            return 2, 1.0, True
        return self._s, 0.0, False


def corridor_model() -> MdpModel:
    P = np.zeros((3, 2, 3))
    R = np.zeros((3, 2, 3))
    P[0, 0, 0] = P[1, 0, 0] = 1.0
    P[0, 1, 1] = P[1, 1, 2] = 1.0
    R[1, 1, 2] = 1.0
    P[2, :, 2] = 1.0
    return MdpModel(P, R, np.array([False, False, True]))


def test_flat_agent_matches_oracle_on_corridor():
    agent = FlatQAgent(
        CorridorEnv(), seed=1, learning_rate=0.5, gamma=0.9, eps=EpsilonSchedule(horizon=300)
    )
    env_gen = rng.stream(1, rng.ENV)
    for _ in range(400):
        agent.run_episode(env_gen)
    oracle = value_iteration(corridor_model(), gamma=0.9)
    learned = np.array(agent.table)
    np.testing.assert_allclose(learned, oracle.q, atol=1e-3)
    assert list(learned.argmax(axis=1)[:2]) == list(oracle.policy[:2])


def test_flat_greedy_rollout_deterministic():
    agent = FlatQAgent(CorridorEnv(), seed=0, learning_rate=0.5, eps=EpsilonSchedule(horizon=50))
    env_gen = rng.stream(0, rng.ENV)
    for _ in range(100):
        agent.run_episode(env_gen)
    a = agent.eval_episode(0.0, rng.stream(1, rng.ENV), rng.stream(1, rng.EVAL))
    b = agent.eval_episode(0.0, rng.stream(2, rng.ENV), rng.stream(2, rng.EVAL))
    assert a.steps == b.steps == 2
    assert a.total_reward == b.total_reward == 1.0


def test_flat_agent_on_chain_reward_support():
    agent = FlatQAgent(ChainEnv(), seed=2, learning_rate=0.1, eps=EpsilonSchedule(horizon=1000))
    env_gen = rng.stream(2, rng.ENV)
    traces = []
    for _ in range(300):
        traces.append(agent.run_episode(env_gen))
        assert sum(agent.env.visits) == traces[-1].steps
    for tr in traces:
        assert tr.total_reward in (0.01, 1.0)
        assert tr.goal_picks == () and tr.goal_successes == ()
    assert agent.primitive_steps == sum(tr.steps for tr in traces)
