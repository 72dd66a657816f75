import struct

import numpy as np
import pytest

from hdqn import rng
from hdqn.agents import EpsilonSchedule, FlatQAgent, HierarchicalAgent
from hdqn.checkpoint import dump_agent, load_agent, read_agent
from hdqn.critic import Critic
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv
from hdqn.errors import ConfigError


def trained_chain_agent(episodes=60):
    env = ChainEnv()
    critic = Critic(env)
    agent = HierarchicalAgent(
        env.n_states,
        env.n_actions,
        critic.n_goals,
        seed=4,
        learning_rate=0.1,
        d1_warmup=16,
        d2_warmup=16,
        eps1=EpsilonSchedule(horizon=200),
        eps2=EpsilonSchedule(horizon=200),
    )
    env_gen = rng.stream(4, rng.ENV)
    for _ in range(episodes):
        agent.run_episode(env, critic, "joint", env_gen)
    return env, critic, agent


def test_hdqn_roundtrip_preserves_everything():
    env, critic, agent = trained_chain_agent()
    blob = dump_agent(agent, env)
    loaded, env2, kind = load_agent(blob)
    assert kind == "hdqn"
    assert isinstance(env2, ChainEnv)
    np.testing.assert_array_equal(loaded.q1.as_array(), agent.q1.as_array())
    np.testing.assert_array_equal(loaded.q2.as_array(), agent.q2.as_array())
    assert loaded.tracker.dump() == agent.tracker.dump()
    assert loaded.primitive_steps == agent.primitive_steps
    assert loaded.joint_steps == agent.joint_steps
    assert loaded.meta_decisions == agent.meta_decisions
    assert loaded.completed_options == agent.completed_options
    assert loaded.eps1 == agent.eps1
    assert loaded.eps2 == agent.eps2
    assert loaded.gamma == agent.gamma


def test_roundtrip_evaluates_identically():
    env, critic, agent = trained_chain_agent()
    loaded, env2, _ = load_agent(dump_agent(agent, env))
    critic2 = Critic(env2)
    a = agent.eval_episode(env, critic, 0.1, rng.stream(7, rng.ENV), rng.stream(7, rng.EVAL))
    b = loaded.eval_episode(env2, critic2, 0.1, rng.stream(7, rng.ENV), rng.stream(7, rng.EVAL))
    assert (a.total_reward, a.steps, a.goal_picks) == (b.total_reward, b.steps, b.goal_picks)


def test_flat_roundtrip():
    env = ChainEnv()
    agent = FlatQAgent(6, 2, seed=1, learning_rate=0.2, eps=EpsilonSchedule(horizon=300))
    env_gen = rng.stream(1, rng.ENV)
    for _ in range(100):
        agent.run_episode(env, env_gen)
    loaded, env2, kind = load_agent(dump_agent(agent, env))
    assert kind == "flat"
    np.testing.assert_array_equal(loaded.q.as_array(), agent.q.as_array())
    assert loaded.primitive_steps == agent.primitive_steps
    assert loaded.eps == agent.eps
    a = agent.eval_episode(env, 0.0, rng.stream(2, rng.ENV), rng.stream(2, rng.EVAL))
    b = loaded.eval_episode(env2, 0.0, rng.stream(2, rng.ENV), rng.stream(2, rng.EVAL))
    assert a.total_reward == b.total_reward


def test_keydoor_env_reconstruction():
    env = KeyDoorEnv(step_limit=77)
    critic = Critic(env)
    agent = HierarchicalAgent(env.n_states, env.n_actions, critic.n_goals, seed=0)
    loaded, env2, _ = load_agent(dump_agent(agent, env))
    assert isinstance(env2, KeyDoorEnv)
    assert env2.step_limit == 77
    assert env2.layout == env.layout
    assert loaded.n_states == env.n_states


def test_custom_layout_survives():
    layout = "#######/#.A.LL#/#.SS..#/#K...D#/#######"
    env = KeyDoorEnv(layout)
    critic = Critic(env)
    agent = HierarchicalAgent(env.n_states, env.n_actions, critic.n_goals, seed=0)
    _, env2, _ = load_agent(dump_agent(agent, env))
    assert env2.layout == env.layout


def test_tabular_roundtrip():
    env, critic, agent = trained_chain_agent()
    agent.q1.learning_rate = 0.25
    loaded, _, _ = load_agent(dump_agent(agent, env))
    q1 = loaded.q1
    assert q1.kind == "tabular"
    assert (q1.n_states, q1.n_goals, q1.n_choices) == (6, 6, 2)
    assert q1.learning_rate == 0.25
    assert np.any(q1.as_array() != 0.0)
    assert np.array_equal(q1.as_array(), agent.q1.as_array())


def test_meta_tabular_roundtrip():
    """The meta table has no goal axis; it keeps its own learning rate."""
    env, critic, agent = trained_chain_agent()
    agent.q2.learning_rate = 0.01
    loaded, _, _ = load_agent(dump_agent(agent, env))
    q2 = loaded.q2
    assert q2.n_goals is None
    assert (q2.n_states, q2.n_choices, q2.learning_rate) == (6, 6, 0.01)
    assert np.any(q2.as_array() != 0.0)
    assert np.array_equal(q2.as_array(), agent.q2.as_array())


def test_mlp_roundtrip():
    """Live parameters, the frozen snapshot, train_steps and the rate."""
    env = ChainEnv()
    critic = Critic(env)
    agent = HierarchicalAgent(
        env.n_states,
        env.n_actions,
        critic.n_goals,
        backend="mlp",
        hidden=7,
        learning_rate=3e-4,
        d1_warmup=8,
        d2_warmup=8,
        target_sync=10_000,
        seed=8,
    )
    env_gen = rng.stream(8, rng.ENV)
    for _ in range(5):
        agent.run_episode(env, critic, "joint", env_gen)
    assert agent.q1.train_steps > 0
    loaded, _, _ = load_agent(dump_agent(agent, env))
    for name in ("q1", "q2"):
        back, net = getattr(loaded, name), getattr(agent, name)
        assert back.kind == "mlp"
        assert (back.hidden, back.train_steps, back.learning_rate) == (7, net.train_steps, 3e-4)
        for k in net.PARAM_NAMES:
            assert np.array_equal(back.params[k], net.params[k])
            assert np.array_equal(back.snapshot[k], net.snapshot[k])
    # Trained since the last sync, so the snapshot is distinct data.
    assert not np.array_equal(loaded.q1.params["w2"], loaded.q1.snapshot["w2"])
    assert np.array_equal(loaded.q1.values(1, 2), agent.q1.values(1, 2))


def test_mlp_backend_roundtrip():
    env = ChainEnv()
    critic = Critic(env)
    agent = HierarchicalAgent(
        env.n_states, env.n_actions, critic.n_goals, backend="mlp", hidden=5, seed=2
    )
    loaded, _, _ = load_agent(dump_agent(agent, env))
    assert loaded.backend == "mlp"
    assert loaded.q1.hidden == 5
    np.testing.assert_array_equal(loaded.q1.flat_params(), agent.q1.flat_params())
    np.testing.assert_array_equal(loaded.q2.flat_params(), agent.q2.flat_params())


def test_file_roundtrip(tmp_path):
    env, critic, agent = trained_chain_agent(episodes=10)
    path = tmp_path / "agent.ckpt"
    path.write_bytes(dump_agent(agent, env))
    loaded, _, kind = read_agent(path)
    assert kind == "hdqn"
    np.testing.assert_array_equal(loaded.q1.as_array(), agent.q1.as_array())


def test_corrupt_checkpoints_rejected(tmp_path):
    env, critic, agent = trained_chain_agent(episodes=5)
    blob = dump_agent(agent, env)
    with pytest.raises(ConfigError):
        load_agent(b"NOPE" + blob[4:])
    with pytest.raises(ConfigError):
        load_agent(blob[: len(blob) // 2])
    with pytest.raises(ConfigError):
        load_agent(b"")
    missing = tmp_path / "none.ckpt"
    with pytest.raises(ConfigError):
        read_agent(missing)


def test_unsupported_version_rejected():
    env, critic, agent = trained_chain_agent(episodes=5)
    blob = bytearray(dump_agent(agent, env))
    blob[4] = 99
    with pytest.raises(ConfigError):
        load_agent(bytes(blob))


def flat_chain_agent():
    env = ChainEnv()
    agent = FlatQAgent(6, 2, seed=1, learning_rate=0.2, eps=EpsilonSchedule(horizon=300))
    env_gen = rng.stream(1, rng.ENV)
    for _ in range(20):
        agent.run_episode(env, env_gen)
    return env, agent


def corrupted(blob: bytes, old: bytes, new: bytes) -> bytes:
    """blob with the first occurrence of old replaced by new."""
    assert old in blob
    return blob.replace(old, new, 1)


def test_dump_writes_only_what_the_flat_agent_has():
    env, agent = flat_chain_agent()
    blob = dump_agent(agent, env)
    header = 4 + 4 + 1 + (4 + 5) + 4 + 4  # magic, version, kind, env block
    fields = 8 + 8 + 24  # primitive_steps, gamma, one schedule
    section = 1 + 3 * 4 + 8 + 6 * 2 * 8  # backend, dims, rate, table
    assert len(blob) == header + fields + section


def test_dump_of_load_reproduces_the_bytes():
    env, critic, agent = trained_chain_agent(episodes=10)
    flat_env, flat = flat_chain_agent()
    mlp = HierarchicalAgent(6, 2, 6, backend="mlp", hidden=3, seed=2)
    keydoor = KeyDoorEnv(step_limit=50)
    kd_agent = HierarchicalAgent(keydoor.n_states, keydoor.n_actions, 4, seed=1)
    for a, e in ((agent, env), (flat, flat_env), (mlp, env), (kd_agent, keydoor)):
        blob = dump_agent(a, e)
        assert dump_agent(*load_agent(blob)[:2]) == blob


@pytest.mark.parametrize(
    "old,new",
    [
        (struct.pack("<ddQ", 1.0, 0.1, 200), struct.pack("<ddQ", 2.0, 0.1, 200)),
        (struct.pack("<ddQ", 1.0, 0.1, 200), struct.pack("<ddQ", 1.0, 0.1, 0)),
    ],
    ids=["start", "horizon"],
)
def test_bad_schedule_rejected(old, new):
    env, critic, agent = trained_chain_agent(episodes=5)
    with pytest.raises(ConfigError):
        load_agent(corrupted(dump_agent(agent, env), old, new))


def test_bad_tracker_floor_rejected():
    env, critic, agent = trained_chain_agent(episodes=5)
    blob = corrupted(dump_agent(agent, env), struct.pack("<Id", 100, 0.1), struct.pack("<Id", 100, 5.0))
    with pytest.raises(ConfigError):
        load_agent(blob)


def test_non_utf8_env_name_rejected():
    env, critic, agent = trained_chain_agent(episodes=5)
    blob = corrupted(dump_agent(agent, env), b"\x05\x00\x00\x00chain", b"\x05\x00\x00\x00ch\xffin")
    with pytest.raises(ConfigError):
        load_agent(blob)


@pytest.mark.parametrize(
    "old,new",
    [
        ((0, 6, 6, 2), (0, 7, 6, 2)),  # low level: one state too many
        ((0, 6, 6, 2), (0, 6, 5, 2)),  # low level: one goal too few
        ((0, 6, 0, 6), (0, 6, 0, 7)),  # meta level: one choice too many
    ],
)
def test_dimension_mismatch_rejected(old, new):
    env, critic, agent = trained_chain_agent(episodes=5)
    blob = corrupted(dump_agent(agent, env), struct.pack("<BIII", *old), struct.pack("<BIII", *new))
    with pytest.raises(ConfigError, match="dimensions"):
        load_agent(blob)


def test_flat_dimension_mismatch_rejected():
    env, agent = flat_chain_agent()
    blob = corrupted(
        dump_agent(agent, env), struct.pack("<BIII", 0, 6, 0, 2), struct.pack("<BIII", 0, 6, 0, 3)
    )
    with pytest.raises(ConfigError, match="dimensions"):
        load_agent(blob)


def test_oversized_network_rejected_before_allocation():
    env = ChainEnv()
    agent = HierarchicalAgent(6, 2, 6, backend="mlp", hidden=5, seed=2)
    blob = corrupted(
        dump_agent(agent, env), struct.pack("<IQ", 5, 0), struct.pack("<IQ", 2**32 - 1, 0)
    )
    with pytest.raises(ConfigError, match="truncated"):
        load_agent(blob)


def test_short_body_and_trailing_bytes_rejected():
    env, agent = flat_chain_agent()
    blob = dump_agent(agent, env)
    with pytest.raises(ConfigError, match="truncated"):
        load_agent(blob[:-8])
    with pytest.raises(ConfigError, match="trailing"):
        load_agent(blob + b"\x00")


def test_unknown_backend_rejected():
    env, agent = flat_chain_agent()
    blob = corrupted(
        dump_agent(agent, env), struct.pack("<BIII", 0, 6, 0, 2), struct.pack("<BIII", 9, 6, 0, 2)
    )
    with pytest.raises(ConfigError, match="backend"):
        load_agent(blob)


def assert_loads_or_config_error(blob: bytes, positions) -> None:
    for pos in positions:
        for value in (0x00, 0xFF, blob[pos] ^ 0x01):
            damaged = blob[:pos] + bytes([value]) + blob[pos + 1 :]
            try:
                load_agent(damaged)
            except ConfigError:
                pass
        with pytest.raises(ConfigError):
            load_agent(blob[:pos])


def test_every_single_byte_corruption_is_handled():
    env, critic, agent = trained_chain_agent(episodes=5)
    blob = dump_agent(agent, env)
    assert_loads_or_config_error(blob, range(len(blob)))
    env, agent = flat_chain_agent()
    blob = dump_agent(agent, env)
    assert_loads_or_config_error(blob, range(len(blob)))
    agent = HierarchicalAgent(6, 2, 6, backend="mlp", hidden=3, seed=2)
    blob = dump_agent(agent, ChainEnv())
    assert_loads_or_config_error(blob, range(len(blob)))


def test_keydoor_env_block_and_dimension_corruption_is_handled():
    """Damage that changes the environment must not size any allocation."""
    env = KeyDoorEnv(step_limit=50)
    critic = Critic(env)
    agent = HierarchicalAgent(env.n_states, env.n_actions, critic.n_goals, seed=0)
    blob = dump_agent(agent, env)
    env_block = 9 + 4 + len("keydoor") + 4 + len(env.layout_text) + 4
    q1 = blob.index(struct.pack("<BIII", 0, env.n_states, critic.n_goals, env.n_actions))
    assert_loads_or_config_error(blob, [*range(env_block), *range(q1, q1 + 13)])
