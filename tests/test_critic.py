import pytest

from helpers import hdqn_agent, keydoor_state, open_room, stored_controller
from hdqn import rng
from hdqn.agents import EpsilonSchedule
from hdqn.critic import INTRINSIC_REWARD, Critic
from hdqn.envs import NAMES, make_env
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import DOWN, LEFT, KeyDoorEnv
from hdqn.errors import ConfigError

WALLED = "#######/#.A.LL#/#.SS..#/#K...D#/#######"
# One env of every name in envs.NAMES, and a key-door room from a layout.
ENVS = [ChainEnv(), KeyDoorEnv(), KeyDoorEnv(WALLED, step_limit=37)]


def test_chain_goal_set():
    env = ChainEnv()
    assert env.goal_names == ("s1", "s2", "s3", "s4", "s5", "s6")
    assert env.goal_cells == (0, 1, 2, 3, 4, 5)
    assert [env.agent_cell_index(s) for s in range(6)] == list(range(6))
    assert hdqn_agent(env).goal_names == env.goal_names


def test_keydoor_goal_set():
    env = KeyDoorEnv()
    lay = env.layout
    assert env.goal_names == ("key", "door", "ladder_bl", "ladder_br")
    cells = [lay.key, lay.door, lay.ladder_bl, lay.ladder_br]
    assert env.goal_cells == tuple(y * lay.width + x for x, y in cells)
    for cell, target in zip(cells, env.goal_cells):
        assert env.agent_cell_index(keydoor_state(env, cell, 1, 1, True)) == target
    assert hdqn_agent(env).n_goals == 4


@pytest.mark.parametrize(
    "env",
    ENVS,
    ids=["chain", "keydoor-default", "keydoor-custom"],
)
def test_make_env_rebuilds_an_equal_env_from_its_description(env):
    """The rebuilt env steps like the original, through the plain
    contract: reset() takes no argument and step returns a tuple
    (next state int, reward float, terminal bool)."""
    assert {e.name for e in ENVS} == set(NAMES)
    back = make_env(env.name, env.layout_text, env.step_limit)
    assert type(back) is type(env)
    for attr in ("name", "layout_text", "step_limit", "n_states", "goal_names", "goal_cells"):
        assert getattr(back, attr) == getattr(env, attr)
    assert getattr(back, "layout", None) == getattr(env, "layout", None)
    gen_a, gen_b = rng.stream(0, rng.ENV), rng.stream(0, rng.ENV)
    assert back.reset() == env.reset()
    for a in [0, 1, 1, 0, 1, 1, 1, 0]:
        out = env.step(a % env.n_actions, gen_b)
        assert back.step(a % env.n_actions, gen_a) == out
        assert type(out) is tuple
        assert [type(x) for x in out] == [int, float, bool]
        if out[2]:
            break


def test_make_env_rejects_an_unknown_name():
    with pytest.raises(ConfigError, match="unknown environment"):
        make_env("maze", "", 500)


def test_chain_goal_predicate():
    env = ChainEnv()
    critic = Critic(env)
    for g, target in enumerate(env.goal_cells):
        for s_after in range(6):
            assert critic.reached(g, s_after) == (s_after == target)


def test_intrinsic_positive_iff_reached_chain():
    """The low level is paid INTRINSIC_REWARD on exactly the steps that
    satisfy the critic's predicate, and nothing on any other step."""
    agent = hdqn_agent(
        ChainEnv(),
        seed=2,
        learning_rate=0.1,
        eps1=EpsilonSchedule(horizon=200),
        eps2=EpsilonSchedule(horizon=200),
    )
    env_gen = rng.stream(2, rng.ENV)
    for _ in range(30):
        agent.run_episode(env_gen)
    d1 = stored_controller(agent)
    assert set(d1["r"].tolist()) == {0.0, INTRINSIC_REWARD}
    for r, row_next in zip(d1["r"], d1["row_next"]):
        assert (r == INTRINSIC_REWARD) == agent.critic.hits[row_next]


@pytest.mark.parametrize(
    "env",
    ENVS + [KeyDoorEnv(open_room(6, 3, 1), step_limit=20)],
    ids=["chain", "keydoor-default", "keydoor-walled", "keydoor-one-cell-patrol"],
)
def test_hits_hold_the_predicate_of_every_row(env):
    """hits has one byte per controller row s * n_goals + g, 1 exactly
    where the agent's cell in s is goal g's cell."""
    hits = Critic(env).hits
    n_goals = len(env.goal_cells)
    assert type(hits) is bytes
    assert len(hits) == env.n_states * n_goals
    for s in range(env.n_states):
        for g, cell in enumerate(env.goal_cells):
            assert hits[s * n_goals + g] == (env.agent_cell_index(s) == cell)
    assert sum(hits) >= n_goals  # every goal's cell is reached in some state


@pytest.mark.parametrize(
    "env", [ChainEnv(), KeyDoorEnv(WALLED, step_limit=37)], ids=["chain", "keydoor"]
)
def test_loops_read_the_table_and_call_neither_critic_nor_env(env, monkeypatch):
    """Once the agent is built, neither loop asks the critic or the env
    whether a goal is reached: both read the table built with the agent."""
    agent = hdqn_agent(env, learning_rate=0.1, d1_warmup=16, d2_warmup=4, batch_size=8)
    hits = agent.critic.hits

    def boom(*args):
        raise AssertionError("goal check outside the table")

    monkeypatch.setattr(Critic, "reached", boom)
    monkeypatch.setattr(env, "agent_cell_index", boom)
    env_gen = rng.stream(0, rng.ENV)
    traces = [agent.run_episode(env_gen, phase) for phase in ("pretrain",) * 5 + ("joint",) * 5]
    traces.append(agent.eval_episode(0.5, rng.stream(0, rng.EVAL), rng.stream(1, rng.EVAL)))
    assert agent.critic.hits is hits
    assert len(agent.d2) > agent.d2.warmup
    assert any(ok for tr in traces for ok in tr.goal_successes)


def test_keydoor_goal_predicates():
    env = KeyDoorEnv()
    critic = Critic(env)
    gen = rng.stream(0, rng.ENV)
    s = env.reset()
    by_name = {name: g for g, name in enumerate(env.goal_names)}
    # Walk to the key: goal "key" is reached on the pickup step.
    for a in [LEFT] * 4 + [DOWN] * 5:
        s, _, _ = env.step(a, gen)
        assert not critic.reached(by_name["key"], s)
    s, r, _ = env.step(DOWN, gen)
    assert r == 100.0
    assert critic.reached(by_name["key"], s)
    assert not critic.reached(by_name["door"], s)


def test_door_goal_ignores_key_possession():
    """The critic checks cells only; door is a valid goal without the key."""
    env = KeyDoorEnv()
    critic = Critic(env)
    door = env.goal_names.index("door")
    # State with the agent on the door cell, no key.
    s = keydoor_state(env, env.layout.door, 0, 0, False)
    assert critic.reached(door, s)
    assert critic.reached(door, env.reset()) is False


def test_ladder_goals():
    env = KeyDoorEnv()
    critic = Critic(env)
    for name, cell in (("ladder_bl", env.layout.ladder_bl), ("ladder_br", env.layout.ladder_br)):
        goal = env.goal_names.index(name)
        s = keydoor_state(env, cell, 3, 1, True)
        assert critic.reached(goal, s)

