import pytest

from hdqn.config import ExperimentConfig, default_config, load_config, parse_config
from hdqn.envs.keydoor import KeyDoorEnv
from hdqn.errors import ConfigError
from hdqn.harness import build_env


def test_defaults_are_the_chain_experiment():
    cfg = ExperimentConfig()
    assert cfg.env == "chain"
    assert cfg.agent == "hdqn"
    assert cfg.backend == "tabular"
    assert cfg.seeds == tuple(range(10))
    assert cfg.episodes == 50_000
    assert cfg.pretrain_steps == 0
    assert cfg.learning_rate == 0.00025
    assert cfg.eps1_horizon == cfg.eps2_horizon == 50_000
    assert cfg.eps_floor == 0.1
    assert cfg.reward_window == 1000
    cfg.validate()


def test_parse_kv_comments_and_blanks():
    text = """
    # chain experiment
    env = chain
    episodes = 200   # short run
    learning_rate = 0.05

    seeds = 0,2,4
    """
    got = parse_config(text)
    assert got == {
        "env": "chain",
        "episodes": 200,
        "learning_rate": 0.05,
        "seeds": (0, 2, 4),
    }


def test_parse_seed_ranges():
    assert parse_config("seeds = 0-3")["seeds"] == (0, 1, 2, 3)
    assert parse_config("seeds = 7")["seeds"] == (7,)
    assert parse_config("seeds = 1-2, 9")["seeds"] == (1, 2, 9)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("episodes 200", "expected 'key = value'"),
        ("nonsense = 3", "unknown key"),
        ("episodes = ", "empty value"),
        ("episodes = many", "bad value"),
        ("seeds = 5-2", "bad seed entry"),
        ("env = chain\nenv = keydoor", "duplicate key"),
    ],
)
def test_parse_diagnostics_carry_line_numbers(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(line, source="test.cfg")
    assert "test.cfg:" in str(err.value)
    assert fragment in str(err.value)


def test_line_number_points_at_offender():
    with pytest.raises(ConfigError) as err:
        parse_config("env = chain\n\nbogus = 1\n", source="f.cfg")
    assert "f.cfg:3" in str(err.value)


@pytest.mark.parametrize(
    "overrides",
    [
        {"env": "maze"},
        {"agent": "sarsa"},
        {"backend": "gp"},
        {"agent": "flat", "env": "keydoor"},
        {"agent": "flat", "backend": "mlp"},
        {"seeds": ()},
        {"seeds": (1, 1)},
        {"episodes": 0},
        {"learning_rate": 0.0},
        {"gamma": 1.5},
        {"eps_floor": -0.1},
        {"pretrain_steps": -1},
        {"layout": "####/#AK#/####"},  # layout without keydoor env
        {"learning_rate": 1.5},  # tabular values need a step size in (0, 1]
        {"agent": "flat", "learning_rate": 1.5},
        {"seeds": (2**64,)},  # beyond the 64-bit seed space
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        default_config(**overrides)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("env = keydoor\nepisodes = 10\npretrain_steps = 50\nseeds = 0-1\n")
    cfg = load_config(str(path))
    assert (cfg.env, cfg.episodes, cfg.pretrain_steps, cfg.seeds) == (
        "keydoor",
        10,
        50,
        (0, 1),
    )


def test_walled_layout_loads_from_config_file(tmp_path):
    layout = "#######/#.A.LL#/#.SS..#/#K...D#/#######"
    path = tmp_path / "room.cfg"
    path.write_text(f"# custom room\nenv = keydoor\nlayout = {layout}   # walls kept\n")
    cfg = load_config(str(path))
    assert cfg.layout == layout
    assert build_env(cfg).layout == KeyDoorEnv(layout).layout


def test_load_config_overrides_win(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seeds = 0-9\n")
    cfg = load_config(str(path), {"seeds": (3,), "backend": "mlp"})
    assert cfg.seeds == (3,)
    assert cfg.backend == "mlp"


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")
