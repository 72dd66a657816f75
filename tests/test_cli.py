import pytest

from hdqn.cli import main

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
    ],
    ids=["tabular-rate", "flat-rate", "config-seed", "flag-seed"],
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
