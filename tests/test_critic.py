import pytest

from helpers import stored_controller
from hdqn import rng
from hdqn.agents import EpsilonSchedule, HierarchicalAgent
from hdqn.critic import INTRINSIC_REWARD, Critic, goal_set
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import DOWN, LEFT, KeyDoorEnv


def test_chain_goal_set():
    goals = goal_set(ChainEnv())
    assert len(goals) == 6
    assert [g.goal_id for g in goals] == list(range(6))
    assert [g.name for g in goals] == ["s1", "s2", "s3", "s4", "s5", "s6"]
    assert [g.target for g in goals] == list(range(6))
    assert goals == goal_set(ChainEnv())


def test_keydoor_goal_set():
    goals = goal_set(KeyDoorEnv())
    assert [g.name for g in goals] == ["key", "door", "ladder_bl", "ladder_br"]
    assert [g.target for g in goals] == ["key", "door", "ladder_bl", "ladder_br"]


def test_unknown_env_rejected():
    with pytest.raises(TypeError):
        goal_set(object())


def test_chain_goal_predicate():
    critic = Critic(ChainEnv())
    for g in critic.goals:
        for s_after in range(6):
            assert critic.reached(g.goal_id, s_after) == (s_after == g.target)


def test_intrinsic_positive_iff_reached_chain():
    """The low level is paid INTRINSIC_REWARD on exactly the steps that
    satisfy the critic's predicate, and nothing on any other step."""
    agent = HierarchicalAgent(
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
    for g, r, s_next in zip(d1["g"], d1["r"], d1["s_next"]):
        assert (r == INTRINSIC_REWARD) == agent.critic.reached(int(g), int(s_next))


def test_keydoor_goal_predicates():
    env = KeyDoorEnv()
    critic = Critic(env)
    gen = rng.stream(0, rng.ENV)
    s = env.reset(gen)
    by_name = {g.name: g.goal_id for g in critic.goals}
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
    door = critic.goals[1].goal_id
    # State with the agent on the door cell, no key.
    s = env.encode(env.layout.door, 0, 0, False)
    assert critic.reached(door, s)
    assert critic.reached(door, env.reset(rng.stream(0, rng.ENV))) is False


def test_ladder_goals():
    env = KeyDoorEnv()
    critic = Critic(env)
    for name, cell in (("ladder_bl", env.layout.ladder_bl), ("ladder_br", env.layout.ladder_br)):
        goal = next(g.goal_id for g in critic.goals if g.name == name)
        s = env.encode(cell, 3, 1, True)
        assert critic.reached(goal, s)

