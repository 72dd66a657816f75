import struct

import pytest

from helpers import hdqn_agent, open_room
from hdqn import checkpoint, cli, harness
from hdqn.cli import main
from hdqn.envs.keydoor import KeyDoorEnv

TINY = """\
env = chain
seeds = 0,1
episodes = 30
learning_rate = 0.1
eps1_horizon = 200
eps2_horizon = 200
d1_warmup = 16
d2_warmup = 16
reward_window = 10
visit_window = 10
workers = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def test_run_writes_outputs(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "chain_hdqn_aggregate.csv" in printed
    assert (out / "chain_hdqn_seed0.csv").exists()
    assert (out / "chain_hdqn_seed1.ckpt").exists()


def test_run_seed_override(tiny_cfg, tmp_path):
    out = tmp_path / "r"
    code = main(["run", "--config", str(tiny_cfg), "--seed", "5", "--out", str(out)])
    assert code == 0
    assert (out / "chain_hdqn_seed5.csv").exists()
    assert not (out / "chain_hdqn_seed0.csv").exists()


def test_run_without_config_uses_defaults_validation(tmp_path):
    # default config is the full 50k-episode run; just check flag parsing
    # errors surface as exit code 1 instead of a traceback
    code = main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert code == 1


def test_bad_config_value_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("episodes = ten\n")
    code = main(["run", "--config", str(path)])
    assert code == 1
    assert "bad.cfg:1" in capsys.readouterr().err


def test_unusable_out_dir_exits_1_before_training(tiny_cfg, tmp_path, capsys, monkeypatch):
    def no_training(cfg, seed):
        raise AssertionError("a seed trained before the output directory was checked")

    monkeypatch.setattr(harness, "run_seed", no_training)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["run", "--config", str(tiny_cfg), "--out", str(blocker / "results")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("epsiodes = 10\n")
    code = main(["run", "--config", str(path)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new,flags",
    [
        ("learning_rate = 0.1", "learning_rate = 1.5", []),
        ("learning_rate = 0.1", "learning_rate = 1.5\nagent = flat", []),
        ("seeds = 0,1", f"seeds = {2**64}", []),
        ("", "", ["--seed", str(2**64)]),
        ("workers = 1", "workers = 1\nd1_capacity = 1000000000000000", []),
        ("env = chain", "env = keydoor\nbackend = mlp\nhidden = 2147483647", []),
    ],
    ids=["tabular-rate", "flat-rate", "config-seed", "flag-seed", "replay-capacity", "mlp-hidden"],
)
def test_out_of_range_inputs_exit_1(tmp_path, capsys, old, new, flags):
    """Inputs that once passed validation and then crashed in training."""
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace(old, new) if old else TINY)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "r"), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: invalid config:")
    assert not (tmp_path / "r").exists()


def test_eval_runs_on_written_checkpoint(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "results"
    main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--checkpoint",
            str(out / "chain_hdqn_seed0.ckpt"),
            "--episodes",
            "10",
            "--epsilon",
            "0.2",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean extrinsic reward" in printed


def test_eval_missing_checkpoint_exits_1(tmp_path):
    code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt")])
    assert code == 1


def test_eval_rejects_bad_epsilon(tiny_cfg, tmp_path):
    out = tmp_path / "results"
    main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    code = main(
        ["eval", "--checkpoint", str(out / "chain_hdqn_seed0.ckpt"), "--epsilon", "1.5"]
    )
    assert code == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["negative", "2**64"])
def test_eval_rejects_out_of_range_seed(tiny_cfg, tmp_path, capsys, seed):
    """An evaluation seed outside the 64-bit stream space is a usage
    error, not a traceback from stream derivation."""
    out = tmp_path / "results"
    main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out / "chain_hdqn_seed0.ckpt"), "--seed", seed])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --seed")


@pytest.mark.parametrize("episodes", [cli.MAX_EVAL_EPISODES + 1, 10**13])
def test_eval_rejects_too_many_episodes_before_reading(tmp_path, capsys, monkeypatch, episodes):
    """A count whose reward array cannot be allocated is a usage error,
    reported before the checkpoint is read."""
    monkeypatch.setattr(cli, "read_agent", lambda path: pytest.fail("checkpoint read"))
    code = main(["eval", "--checkpoint", str(tmp_path / "x.ckpt"), "--episodes", str(episodes)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --episodes")


def test_oversized_room_exits_1_before_any_value_function_is_built(tmp_path, capsys, monkeypatch):
    """A 402 x 402 room with a 398-cell patrol would size q1 at 30.7 GiB.
    `hdqn run` on it, and `hdqn eval` on a checkpoint naming it with
    matching dimensions, exit 1 with an error before building a table."""
    for module in (harness, checkpoint):
        monkeypatch.setattr(module, "make_estimator", lambda *a: pytest.fail("table built"))
    big = open_room(402, 402, 398)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"env = keydoor\nseeds = 0\nworkers = 1\nlayout = {big}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith("error: layout:")

    def text(t):
        return struct.pack("<I", len(t)) + t.encode()

    def section(n_states, n_goals):  # a tabular value section's header
        return struct.pack("<BIII", 0, n_states, n_goals, 4)

    env = KeyDoorEnv(step_limit=50)
    blob = checkpoint.dump_agent(hdqn_agent(env), env)
    n_states = 402 * 402 * 398 * 4
    for old, new in (
        (text(env.layout_text), text(big.replace("/", "\n"))),
        (section(env.n_states, 4), section(n_states, 4)),
        (section(env.n_states, 0), section(n_states, 0)),
    ):
        assert old in blob
        blob = blob.replace(old, new, 1)
    path = tmp_path / "big.ckpt"
    path.write_bytes(blob)
    assert main(["eval", "--checkpoint", str(path)]) == 1
    assert "MAX_STATES" in capsys.readouterr().err


def test_oracle_prints_values(capsys):
    code = main(["oracle"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "0.208" in printed


def test_oracle_gamma_flag(capsys):
    code = main(["oracle", "--gamma", "0.5"])
    assert code == 0
    assert main(["oracle", "--gamma", "1.5"]) == 1


def test_backend_override(tiny_cfg, tmp_path):
    out = tmp_path / "r"
    cfg = tmp_path / "one.cfg"
    cfg.write_text(TINY.replace("seeds = 0,1", "seeds = 0").replace("episodes = 30", "episodes = 5"))
    code = main(["run", "--config", str(cfg), "--backend", "mlp", "--out", str(out)])
    assert code == 0
    assert (out / "chain_hdqn_seed0.csv").exists()
