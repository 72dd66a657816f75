import pathlib
import tracemalloc

import pytest

from helpers import open_room
from hdqn.config import (
    MAX_BATCH_SIZE,
    MAX_CAPACITY,
    MAX_HIDDEN,
    MAX_MLP_WEIGHTS,
    MAX_SEEDS,
    MAX_WORKERS,
    ExperimentConfig,
    default_config,
    load_config,
    parse_config,
)
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
    assert parse_config(f"seeds = 0-{MAX_SEEDS - 1}")["seeds"] == tuple(range(MAX_SEEDS))


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("episodes 200", "expected 'key = value'"),
        ("nonsense = 3", "unknown key"),
        ("episodes = ", "empty value"),
        ("episodes = many", "bad value"),
        ("seeds = 5-2", "bad seed entry"),
        ("seeds = 0-1099511627776", "bad value for 'seeds'"),  # 2**40 + 1 seeds
        ("seeds = 0-65000, 70000-71000", "MAX_SEEDS"),  # the cap counts the whole line
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
        {"agent": "flat", "pretrain_steps": 10},  # the flat baseline never pretrains
        {"learning_rate": float("nan")},
        {"backend": "mlp", "learning_rate": float("nan")},
        {"backend": "mlp", "learning_rate": float("inf")},
        # Each would train its whole budget and then overflow its checkpoint field.
        {"env": "keydoor", "step_limit": 5_000_000_000},
        {"tracker_window": 5_000_000_000},
        {"backend": "mlp", "hidden": 2**32},
        {"backend": "mlp", "target_sync": 2**32},
        {"eps1_horizon": 10**20},
        {"eps2_horizon": 2**64},
        # Each would end in a memory error when the agent is built.
        {"d1_capacity": 10**15},
        {"d2_capacity": MAX_CAPACITY + 1},
        {"env": "keydoor", "backend": "mlp", "hidden": 2**31 - 1},
        {"backend": "mlp", "hidden": MAX_HIDDEN + 1},
        # Would end in a memory error when the agent first samples.
        {"batch_size": MAX_BATCH_SIZE + 1},
        # Would ask a process pool for that many workers at once.
        {"workers": MAX_WORKERS + 1},
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        default_config(**overrides)


@pytest.mark.parametrize("level", ["d1", "d2"])
def test_warmup_above_its_capacity_is_rejected(level):
    """A ring holds at most capacity rows, so a larger warm-up would never
    be reached and that level would never train; an equal one is."""
    with pytest.raises(ConfigError, match=f"{level}_warmup must be <= {level}_capacity = 10"):
        default_config(**{f"{level}_capacity": 10, f"{level}_warmup": 11})
    cfg = default_config(**{f"{level}_capacity": 10, f"{level}_warmup": 10})
    assert getattr(cfg, f"{level}_warmup") == getattr(cfg, f"{level}_capacity") == 10


def test_size_bounds_admit_their_limits():
    cfg = default_config(
        d1_capacity=MAX_CAPACITY,
        d2_capacity=MAX_CAPACITY,
        backend="mlp",
        hidden=MAX_HIDDEN,
        workers=MAX_WORKERS,
        target_sync=2**32 - 1,
        tracker_window=2**32 - 1,
        batch_size=MAX_BATCH_SIZE,
    )
    assert (cfg.d1_capacity, cfg.hidden, cfg.workers) == (MAX_CAPACITY, MAX_HIDDEN, MAX_WORKERS)
    assert cfg.batch_size == MAX_BATCH_SIZE == 4096
    assert cfg.target_sync == cfg.tracker_window == 2**32 - 1


def test_network_weights_are_bounded_before_any_array_exists():
    """(n_states + n_goals) * hidden is checked when the config is
    validated, from the room alone. A 100 x 100 room with a 4-cell patrol
    (160,000 states) at the default 64 units would take 78 MB a
    first-layer array; validation allocates no such array. The shipped
    key-door room is admitted at MAX_HIDDEN."""
    shipped = pathlib.Path(__file__).resolve().parent.parent / "configs" / "keydoor_hdqn.cfg"
    assert load_config(str(shipped), {"backend": "mlp", "hidden": MAX_HIDDEN}).hidden == MAX_HIDDEN
    assert (2592 + 4) * MAX_HIDDEN <= MAX_MLP_WEIGHTS
    for layout, hidden in ((open_room(100, 100, 4), 64), (open_room(24, 24, 4), MAX_HIDDEN)):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="MAX_MLP_WEIGHTS"):
                default_config(env="keydoor", backend="mlp", hidden=hidden, layout=layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
    # The tabular backend has no weights to bound.
    assert default_config(env="keydoor", layout=open_room(24, 24, 4), hidden=MAX_HIDDEN).hidden == MAX_HIDDEN


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
