import hashlib
import pathlib
import struct

import numpy as np
import pytest

from helpers import hdqn_agent
from hdqn import checkpoint, rng
from hdqn.agents import EpsilonSchedule, FlatQAgent
from hdqn.checkpoint import _Writer, dump_agent, load_agent, read_agent
from hdqn.config import load_config
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv
from hdqn.errors import ConfigError
from hdqn.harness import run_seed
from hdqn.values import MlpQ

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def trained_chain_agent(episodes=60):
    agent = hdqn_agent(
        ChainEnv(),
        seed=4,
        learning_rate=0.1,
        d1_warmup=16,
        d2_warmup=16,
        eps1=EpsilonSchedule(horizon=200),
        eps2=EpsilonSchedule(horizon=200),
    )
    env_gen = rng.stream(4, rng.ENV)
    for _ in range(episodes):
        agent.run_episode(env_gen)
    return agent.env, agent


def test_hdqn_roundtrip_preserves_everything():
    env, agent = trained_chain_agent()
    blob = dump_agent(agent, env)
    loaded, env2, kind = load_agent(blob)
    assert kind == "hdqn"
    assert isinstance(env2, ChainEnv)
    np.testing.assert_array_equal(loaded.q1.table, agent.q1.table)
    np.testing.assert_array_equal(loaded.q2.table, agent.q2.table)
    assert loaded.tracker.dump() == agent.tracker.dump()
    assert loaded.primitive_steps == agent.primitive_steps
    assert loaded.joint_steps == agent.joint_steps
    assert loaded.completed_options == agent.completed_options
    assert loaded.eps1 == agent.eps1
    assert loaded.eps2 == agent.eps2
    assert loaded.tracker.floor == loaded.eps1.floor == agent.eps1.floor
    assert loaded.tracker.window == agent.tracker.window
    assert loaded.gamma == agent.gamma


def test_loaded_table_trains_in_place():
    """train_on updates a loaded table, which the reader filled in place,
    exactly as it updates the table that was saved."""
    env, agent = trained_chain_agent()
    loaded, _, _ = load_agent(dump_agent(agent, env))
    before = loaded.q1.table.copy()
    columns = (np.array([5, 9, 5]), np.array([3, 1, 0]), np.array([1.0, 0.0, 0.5]), np.array([0.0, 0.9, 0.9]))
    assert loaded.q1.train_on(columns) == agent.q1.train_on(columns)
    assert not np.array_equal(loaded.q1.table, before)
    assert loaded.q1.table.tobytes() == agent.q1.table.tobytes()


def test_roundtrip_evaluates_identically():
    env, agent = trained_chain_agent()
    loaded, _, _ = load_agent(dump_agent(agent, env))
    a = agent.eval_episode(0.1, rng.stream(7, rng.ENV), rng.stream(7, rng.EVAL))
    b = loaded.eval_episode(0.1, rng.stream(7, rng.ENV), rng.stream(7, rng.EVAL))
    assert (a.total_reward, a.steps, a.goal_picks) == (b.total_reward, b.steps, b.goal_picks)


def test_flat_roundtrip():
    env = ChainEnv()
    agent = FlatQAgent(env, seed=1, learning_rate=0.2, eps=EpsilonSchedule(horizon=300))
    env_gen = rng.stream(1, rng.ENV)
    for _ in range(100):
        agent.run_episode(env_gen)
    loaded, _, kind = load_agent(dump_agent(agent, env))
    assert kind == "flat"
    assert loaded.table == agent.table
    assert loaded.primitive_steps == agent.primitive_steps
    assert loaded.eps == agent.eps
    a = agent.eval_episode(0.0, rng.stream(2, rng.ENV), rng.stream(2, rng.EVAL))
    b = loaded.eval_episode(0.0, rng.stream(2, rng.ENV), rng.stream(2, rng.EVAL))
    assert a.total_reward == b.total_reward


def test_keydoor_env_reconstruction():
    env = KeyDoorEnv(step_limit=77)
    agent = hdqn_agent(env, seed=0)
    loaded, env2, _ = load_agent(dump_agent(agent, env))
    assert isinstance(env2, KeyDoorEnv)
    assert env2.step_limit == 77
    assert env2.layout == env.layout
    assert loaded.env.n_states == env.n_states


def test_custom_layout_survives():
    layout = "#######/#.A.LL#/#.SS..#/#K...D#/#######"
    env = KeyDoorEnv(layout)
    agent = hdqn_agent(env, seed=0)
    _, env2, _ = load_agent(dump_agent(agent, env))
    assert env2.layout == env.layout


def test_tabular_roundtrip():
    env, agent = trained_chain_agent()
    agent.q1.learning_rate = 0.25
    loaded, _, _ = load_agent(dump_agent(agent, env))
    q1 = loaded.q1
    assert q1.kind == "tabular"
    assert (q1.n_states, q1.n_goals, q1.n_choices) == (6, 6, 2)
    assert q1.learning_rate == 0.25
    assert np.any(q1.table != 0.0)
    assert np.array_equal(q1.table, agent.q1.table)


def test_meta_tabular_roundtrip():
    """The meta table has no goal axis; it keeps its own learning rate."""
    env, agent = trained_chain_agent()
    agent.q2.learning_rate = 0.01
    loaded, _, _ = load_agent(dump_agent(agent, env))
    q2 = loaded.q2
    assert q2.n_goals is None
    assert (q2.n_states, q2.n_choices, q2.learning_rate) == (6, 6, 0.01)
    assert np.any(q2.table != 0.0)
    assert np.array_equal(q2.table, agent.q2.table)


def test_mlp_roundtrip():
    """Live parameters, the frozen snapshot, train_steps, target_sync and
    the rate."""
    env = ChainEnv()
    agent = hdqn_agent(
        env,
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
        agent.run_episode(env_gen)
    assert agent.q1.train_steps > 0
    loaded, _, _ = load_agent(dump_agent(agent, env))
    for name in ("q1", "q2"):
        back, net = getattr(loaded, name), getattr(agent, name)
        assert back.kind == "mlp"
        assert (back.hidden, back.train_steps, back.learning_rate) == (7, net.train_steps, 3e-4)
        assert back.target_sync == 10_000
        for k in net.PARAM_NAMES:
            assert np.array_equal(back.params[k], net.params[k])
            assert np.array_equal(back.snapshot[k], net.snapshot[k])
    # Trained since the last sync, so the snapshot is distinct data.
    assert not np.array_equal(loaded.q1.params["w2"], loaded.q1.snapshot["w2"])
    row = 1 * agent.n_goals + 2
    assert np.array_equal(loaded.q1.values(row), agent.q1.values(row))


def test_mlp_backend_roundtrip():
    env = ChainEnv()
    agent = hdqn_agent(env, backend="mlp", hidden=5, seed=2)
    loaded, _, _ = load_agent(dump_agent(agent, env))
    assert loaded.q1.kind == loaded.q2.kind == "mlp"
    assert loaded.q1.hidden == 5
    for q in ("q1", "q2"):
        for name, p in getattr(agent, q).params.items():
            np.testing.assert_array_equal(getattr(loaded, q).params[name], p)


def test_file_roundtrip(tmp_path):
    env, agent = trained_chain_agent(episodes=10)
    path = tmp_path / "agent.ckpt"
    path.write_bytes(dump_agent(agent, env))
    loaded, _, kind = read_agent(path)
    assert kind == "hdqn"
    np.testing.assert_array_equal(loaded.q1.table, agent.q1.table)


def test_corrupt_checkpoints_rejected(tmp_path):
    env, agent = trained_chain_agent(episodes=5)
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
    """Version 2, which repeated facts and left out target_sync, has no
    reader; neither has any other version but 3."""
    env, agent = trained_chain_agent(episodes=5)
    blob = bytearray(dump_agent(agent, env))
    for version in (2, 99):
        blob[4] = version
        with pytest.raises(ConfigError, match=f"unsupported checkpoint version {version}"):
            load_agent(bytes(blob))


def flat_chain_agent():
    agent = FlatQAgent(ChainEnv(), seed=1, learning_rate=0.2, eps=EpsilonSchedule(horizon=300))
    env_gen = rng.stream(1, rng.ENV)
    for _ in range(20):
        agent.run_episode(env_gen)
    return agent.env, agent


def corrupted(blob: bytes, old: bytes, new: bytes) -> bytes:
    """blob with the first occurrence of old replaced by new."""
    assert old in blob
    return blob.replace(old, new, 1)


HEADER = 4 + 4 + 1 + (4 + 5) + 4 + 4  # magic, version, kind, the chain's env block
SCHEDULE = 8 + 8  # floor, horizon
SECTION = 1 + 3 * 4 + 8  # a value section's backend, dims and rate


@pytest.mark.parametrize("kind", ["flat", "hdqn", "mlp"])
def test_dump_writes_only_what_the_agent_has(kind):
    """Each fact once: one option counter, schedules without a start,
    a tracker without a floor; a network section adds hidden,
    train_steps and target_sync, a u32."""
    if kind == "flat":
        env, agent = flat_chain_agent()
        fields = 8 + 8 + SCHEDULE  # primitive_steps, gamma, one schedule
        sections = SECTION + 6 * 2 * 8  # the table
    else:
        if kind == "hdqn":
            env, agent = trained_chain_agent(episodes=5)
            sections = SECTION + 6 * 6 * 2 * 8 + SECTION + 6 * 6 * 8  # q1, q2 tables
        else:
            agent = hdqn_agent(ChainEnv(), backend="mlp", hidden=3, target_sync=777, seed=2)
            env = agent.env
            net = SECTION + 4 + 8 + 4  # hidden, train_steps, target_sync
            # Live and snapshot parameters: (states + goals + 1) * hidden
            # + (hidden + 1) * choices each.
            sections = net + 2 * 8 * (13 * 3 + 4 * 2) + net + 2 * 8 * (7 * 3 + 4 * 6)
        # primitive_steps, joint_steps, completed_options, gamma, two
        # schedules, the tracker's window and its goal windows
        tracker = 4 + sum(4 + len(w) for w in agent.tracker.dump())
        fields = 3 * 8 + 8 + 2 * SCHEDULE + tracker
    blob = dump_agent(agent, env)
    assert len(blob) == HEADER + fields + sections
    if kind == "mlp":
        assert blob.count(struct.pack("<IQI", 3, 0, 777)) == 2


def test_dump_of_load_reproduces_the_bytes():
    env, agent = trained_chain_agent(episodes=10)
    flat_env, flat = flat_chain_agent()
    mlp = hdqn_agent(env, backend="mlp", hidden=3, seed=2)
    keydoor = KeyDoorEnv(step_limit=50)
    kd_agent = hdqn_agent(keydoor, seed=1)
    for a, e in ((agent, env), (flat, flat_env), (mlp, env), (kd_agent, keydoor)):
        blob = dump_agent(a, e)
        assert dump_agent(*load_agent(blob)[:2]) == blob


def test_dump_rejects_an_environment_the_agent_was_not_built_for():
    """The environment block is the agent's own: a look-alike env with
    another step limit would load back as a different task."""
    agent = hdqn_agent(KeyDoorEnv(step_limit=500), seed=0)
    with pytest.raises(ValueError, match="built for"):
        dump_agent(agent, KeyDoorEnv(step_limit=50))
    with pytest.raises(ValueError, match="built for"):
        dump_agent(agent, ChainEnv())


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("chain_hdqn.cfg", {"episodes": 100}),
        ("chain_flat.cfg", {"episodes": 100}),
        ("keydoor_hdqn.cfg", {"pretrain_steps": 1000, "episodes": 1}),
    ],
)
def test_shipped_config_checkpoints_reproduce_their_bytes(name, overrides):
    cfg = load_config(CONFIGS / name, dict(overrides, seeds=(0,), workers=1))
    blob = run_seed(cfg, 0).checkpoint
    assert dump_agent(*load_agent(blob)[:2]) == blob


def test_flat_checkpoint_bytes_pinned():
    """The flat agent writes its list table as a tabular value section
    (digest re-recorded for checkpoint version 3)."""
    cfg = load_config(CONFIGS / "chain_flat.cfg", {"seeds": (0,), "episodes": 300, "workers": 1})
    digest = hashlib.sha256(run_seed(cfg, 0).checkpoint).hexdigest()
    assert digest == "ecfc3314de90240de64c06fd5d4afa23d06cf5782323bfb30c4a6c4107d31039"


def test_load_builds_the_agent_around_the_read_estimators(monkeypatch):
    """Loading builds exactly two estimators, both through
    values.make_estimator, and the agent holds them with every array
    as it was written."""
    make = checkpoint.make_estimator
    built = []

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(checkpoint, "make_estimator", recording)
    for backend in ("tabular", "mlp"):
        env = ChainEnv()
        agent = hdqn_agent(
            env, backend=backend, hidden=4, learning_rate=0.1, seed=3, d1_warmup=8, d2_warmup=8
        )
        env_gen = rng.stream(3, rng.ENV)
        for _ in range(5):
            agent.run_episode(env_gen)
        built.clear()
        loaded, _, _ = load_agent(dump_agent(agent, env))
        assert len(built) == 2 and built[0] is loaded.q1 and built[1] is loaded.q2
        for name in ("q1", "q2"):
            back, arrays = getattr(loaded, name).arrays(), getattr(agent, name).arrays()
            assert len(back) == len(arrays) == (1 if backend == "tabular" else 8)
            for a, b in zip(back, arrays):
                np.testing.assert_array_equal(a, b)


def test_flat_checkpoint_with_a_network_section_rejected():
    env, agent = flat_chain_agent()
    blob = dump_agent(agent, env)
    net = _Writer()
    net.values(MlpQ(6, 2, hidden=3))
    start = blob.index(struct.pack("<BIII", 0, 6, 0, 2))
    with pytest.raises(ConfigError, match="tabular"):
        load_agent(blob[:start] + b"".join(net.parts))


@pytest.mark.parametrize(
    "old,new",
    [
        (struct.pack("<dQ", 0.1, 200), struct.pack("<dQ", 0.1, 0)),
        (struct.pack("<dQ", 0.1, 200), struct.pack("<dQ", 5.0, 200)),
    ],
    ids=["horizon", "floor"],
)
def test_bad_schedule_rejected(old, new):
    """A schedule with no steps to anneal over, or a floor outside
    [0, 1], which the tracker would also take, is rejected."""
    env, agent = trained_chain_agent(episodes=5)
    with pytest.raises(ConfigError):
        load_agent(corrupted(dump_agent(agent, env), old, new))


@pytest.mark.parametrize("gamma", [float("nan"), -0.5, 1.5])
def test_bad_gamma_rejected(gamma):
    """A discount outside [0, 1] in either agent's fields ends in a
    ConfigError, as it does in a config file."""
    env, agent = trained_chain_agent(episodes=5)
    head = (agent.primitive_steps, agent.joint_steps, agent.completed_options)
    blob = corrupted(
        dump_agent(agent, env), struct.pack("<QQQd", *head, 0.99), struct.pack("<QQQd", *head, gamma)
    )
    with pytest.raises(ConfigError, match="gamma"):
        load_agent(blob)
    env, flat = flat_chain_agent()
    blob = corrupted(
        dump_agent(flat, env),
        struct.pack("<Qd", flat.primitive_steps, 0.99),
        struct.pack("<Qd", flat.primitive_steps, gamma),
    )
    with pytest.raises(ConfigError, match="gamma"):
        load_agent(blob)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_non_finite_network_learning_rate_rejected(lr):
    env = ChainEnv()
    agent = hdqn_agent(env, backend="mlp", hidden=3, learning_rate=3e-4, seed=2)
    section = struct.pack("<BIIId", 1, 6, 6, 2, 3e-4)  # the low level's header
    blob = corrupted(dump_agent(agent, env), section, struct.pack("<BIIId", 1, 6, 6, 2, lr))
    with pytest.raises(ConfigError, match="learning_rate"):
        load_agent(blob)


def test_zero_target_sync_rejected():
    agent = hdqn_agent(ChainEnv(), backend="mlp", hidden=3, seed=2)
    blob = corrupted(
        dump_agent(agent, agent.env), struct.pack("<IQI", 3, 0, 1000), struct.pack("<IQI", 3, 0, 0)
    )
    with pytest.raises(ConfigError, match="target_sync"):
        load_agent(blob)


# A trained_chain_agent's two schedules (floor 0.1, horizon 200) and its
# tracker's window (100): the bytes just before the goal windows.
BEFORE_WINDOWS = struct.pack("<dQdQI", 0.1, 200, 0.1, 200, 100)


def tracker_windows(blob: bytes, n_goals: int) -> list:
    """(offset of the count, count) of each goal window of a
    trained_chain_agent checkpoint."""
    pos = blob.index(BEFORE_WINDOWS) + len(BEFORE_WINDOWS)
    out = []
    for _ in range(n_goals):
        (count,) = struct.unpack_from("<I", blob, pos)
        out.append((pos, count))
        pos += 4 + count
    return out


def test_tracker_outcome_byte_other_than_0_or_1_rejected():
    env, agent = trained_chain_agent(episodes=5)
    blob = dump_agent(agent, env)
    pos, count = next(w for w in tracker_windows(blob, agent.n_goals) if w[1])
    damaged = blob[: pos + 4] + b"\x02" + blob[pos + 5 :]
    with pytest.raises(ConfigError, match="each 0 or 1"):
        load_agent(damaged)


def test_tracker_window_longer_than_its_length_rejected():
    """A goal window holding more outcomes than the tracker's window is
    rejected, not trimmed."""
    env, agent = trained_chain_agent(episodes=5)
    blob = dump_agent(agent, env)
    longest = max(count for _, count in tracker_windows(blob, agent.n_goals))
    assert longest >= 2
    damaged = corrupted(blob, BEFORE_WINDOWS, BEFORE_WINDOWS[:-4] + struct.pack("<I", longest - 1))
    with pytest.raises(ConfigError, match=f"at most {longest - 1} outcomes"):
        load_agent(damaged)


def test_non_utf8_env_name_rejected():
    env, agent = trained_chain_agent(episodes=5)
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
    env, agent = trained_chain_agent(episodes=5)
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
    agent = hdqn_agent(env, backend="mlp", hidden=5, seed=2)
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
    env, agent = trained_chain_agent(episodes=5)
    blob = dump_agent(agent, env)
    assert_loads_or_config_error(blob, range(len(blob)))
    env, agent = flat_chain_agent()
    blob = dump_agent(agent, env)
    assert_loads_or_config_error(blob, range(len(blob)))
    agent = hdqn_agent(ChainEnv(), backend="mlp", hidden=3, seed=2)
    blob = dump_agent(agent, agent.env)
    assert_loads_or_config_error(blob, range(len(blob)))


def test_keydoor_env_block_and_dimension_corruption_is_handled():
    """Damage that changes the environment must not size any allocation."""
    env = KeyDoorEnv(step_limit=50)
    agent = hdqn_agent(env, seed=0)
    blob = dump_agent(agent, env)
    env_block = 9 + 4 + len("keydoor") + 4 + len(env.layout_text) + 4
    q1 = blob.index(struct.pack("<BIII", 0, env.n_states, agent.n_goals, env.n_actions))
    assert_loads_or_config_error(blob, [*range(env_block), *range(q1, q1 + 13)])
