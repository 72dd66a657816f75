import concurrent.futures
import struct

import pytest

from helpers import hdqn_agent, open_room
from hdqn import checkpoint, cli, harness
from hdqn.cli import main
from hdqn.config import MAX_WORKERS
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
workers = 1
"""


TINY_KEYDOOR = """\
env = keydoor
seeds = 0,1
pretrain_steps = 1000
episodes = 13
step_limit = 50
d1_warmup = 16
d2_warmup = 16
reward_window = 5
workers = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture
def tiny_keydoor_cfg(tmp_path):
    path = tmp_path / "keydoor.cfg"
    path.write_text(TINY_KEYDOOR)
    return path


def test_run_writes_outputs(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "chain_hdqn_aggregate.csv" in printed
    assert (out / "chain_hdqn_seed0.csv").exists()
    assert (out / "chain_hdqn_seed1.ckpt").exists()


def test_run_reports_progress_on_stderr(tiny_keydoor_cfg, tmp_path, capsys):
    """Each seed writes its progress lines on stderr, at most ten per
    phase, and stdout lists only the written paths."""
    out = tmp_path / "results"
    assert main(["run", "--config", str(tiny_keydoor_cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert sorted(printed.out.splitlines()) == sorted(str(p) for p in out.iterdir())
    lines = printed.err.splitlines()
    for seed in (0, 1):
        mine = [line for line in lines if line.startswith(f"seed {seed}: ")]
        pretrain = [line for line in mine if line.startswith(f"seed {seed}: pretrain ")]
        joint = [line for line in mine if line.startswith(f"seed {seed}: episode ")]
        assert mine == pretrain + joint  # the phases in order, nothing else
        assert 1 <= len(pretrain) <= 10 and 1 <= len(joint) <= 10
        steps = int(pretrain[-1].split()[3].split("/")[0])
        assert steps >= 1000
        assert joint[-1].startswith(f"seed {seed}: episode 13/13, ")
        assert all(" steps/s" in line and "reward_ma " in line for line in mine)
    assert len(lines) == sum(line.startswith(("seed 0: ", "seed 1: ")) for line in lines)
    assert lines[0].startswith("seed 0: ") and lines[-1].startswith("seed 1: ")


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
    for line in ("epsiodes = 10", "visit_window = 10"):  # a misspelling, a removed key
        path.write_text(line + "\n")
        code = main(["run", "--config", str(path)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["eval", "--checkpoint", "x", "--episodes", "abc"], ["run", "--bogus"], []],
    ids=["bad-int", "unknown-flag", "no-command"],
)
def test_usage_errors_exit_1(capsys, argv):
    """A command line argparse rejects is a usage error: exit 1 and one
    error line, as for a bad config; exit code 2 means divergence."""
    assert main(argv) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ") and printed.err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize(
    "old,new,flags",
    [
        ("learning_rate = 0.1", "learning_rate = 1.5", []),
        ("learning_rate = 0.1", "learning_rate = 1.5\nagent = flat", []),
        ("seeds = 0,1", f"seeds = {2**64}", []),
        ("", "", ["--seed", str(2**64)]),
        ("workers = 1", "workers = 1\nd1_capacity = 1000000000000000", []),
        ("env = chain", "env = keydoor\nbackend = mlp\nhidden = 2147483647", []),
        ("workers = 1", f"workers = 1\nbackend = mlp\ntarget_sync = {2**32}", []),
        ("workers = 1", "workers = 1\nbatch_size = 100000000000", []),
    ],
    ids=[
        "tabular-rate",
        "flat-rate",
        "config-seed",
        "flag-seed",
        "replay-capacity",
        "mlp-hidden",
        "mlp-target-sync",
        "batch-size",
    ],
)
def test_out_of_range_inputs_exit_1(tmp_path, capsys, old, new, flags):
    """Inputs that once passed validation and then crashed in training."""
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace(old, new) if old else TINY)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "r"), *flags])
    assert code == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: invalid config:") and printed.err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    """A config file holding a byte that is not UTF-8 ends in an error
    that names the file, not in a traceback."""
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"episodes = 10\n# caf\xe9 \xff\n")
    out = tmp_path / "r"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config ") and "latin.cfg" in err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_eval_prints_each_goal_pick_share(tiny_keydoor_cfg, tmp_path, capsys):
    """On a hierarchical checkpoint the goals' pick shares sum to 1, and
    each goal line gives its share beside its success rate."""
    out = tmp_path / "results"
    main(["run", "--config", str(tiny_keydoor_cfg), "--seed", "0", "--out", str(out)])
    path = out / "keydoor_hdqn_seed0.ckpt"
    agent, _, _ = checkpoint.read_agent(path)
    summary = harness.evaluate_policy(agent, 20, 0.1)
    assert set(summary.goal_picks) == set(summary.goal_success)
    assert sum(summary.goal_picks.values()) == pytest.approx(1.0)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--episodes", "20"]) == 0
    goal_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("goal ")]
    assert goal_lines == [
        f"goal {name}: success rate {rate:.3f}  picks {summary.goal_picks[name]:.3f}"
        for name, rate in summary.goal_success.items()
    ]


def test_eval_of_a_flat_checkpoint_prints_no_goal_line(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "results"
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(TINY.replace("seeds = 0,1", "seeds = 0") + "agent = flat\n")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "chain_flat_seed0.ckpt"), "--episodes", "10"]) == 0
    printed = capsys.readouterr().out
    assert "mean extrinsic reward" in printed
    assert not any(line.startswith("goal ") for line in printed.splitlines())


def test_eval_missing_checkpoint_exits_1(tmp_path):
    code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt")])
    assert code == 1


def test_eval_rejects_a_version_2_checkpoint(tmp_path, capsys):
    """A flat chain agent as version 2 wrote it, whose schedule held a
    start of 1.0, has no reader: eval exits 1 with an error line."""
    blob = b"".join(
        [
            b"HACK",
            struct.pack("<IB", 2, 0),  # version 2, the flat kind
            struct.pack("<I5sII", 5, b"chain", 0, 0),  # name, empty layout, step_limit 0
            struct.pack("<Qd", 0, 0.99),  # primitive_steps, gamma
            struct.pack("<ddQ", 1.0, 0.1, 300),  # start, floor, horizon
            struct.pack("<BIIId", 0, 6, 0, 2, 0.2),  # tabular section header
            bytes(6 * 2 * 8),
        ]
    )
    path = tmp_path / "old.ckpt"
    path.write_bytes(blob)
    assert main(["eval", "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "unsupported checkpoint version 2" in err
    assert "Traceback" not in err


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


def test_bad_layout_exits_1_before_the_output_directory_exists(tmp_path, capsys):
    """A room with no door fails validation, so `hdqn run` creates no
    output directory and starts no worker."""
    cfg = tmp_path / "nodoor.cfg"
    cfg.write_text("env = keydoor\nseeds = 0-3\nworkers = 2\nlayout = ####/#AK#/####\n")
    out = tmp_path / "r"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: layout:")
    assert not out.exists()


def test_unreachable_warmup_exits_1_before_the_output_directory_exists(tmp_path, capsys):
    """Warm-ups above their rings' capacities would never be reached, so
    neither level would train: `hdqn run` exits 1 with no output
    directory rather than training nothing and exiting 0."""
    cfg = tmp_path / "warm.cfg"
    cfg.write_text(
        TINY.replace("d1_warmup = 16\nd2_warmup = 16", "d1_warmup = 100\nd2_warmup = 20")
        + "d1_capacity = 10\nd2_capacity = 10\n"
    )
    out = tmp_path / "r"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: invalid config: d1_warmup must be <= d1_capacity = 10, got 100"
    )
    assert not out.exists()


def test_too_many_workers_exit_1_before_any_pool_exists(tmp_path, capsys, monkeypatch):
    """One more worker than MAX_WORKERS, with a seed for each, fails
    validation: `hdqn run` exits 1 before the output directory or any
    process pool exists."""
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda *a, **k: pytest.fail("pool started")
    )
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"seeds = 0-{MAX_WORKERS}\nworkers = {MAX_WORKERS + 1}\n")
    out = tmp_path / "r"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid config: workers must be in [0, ")
    assert not out.exists()


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
