"""The fenced python blocks of README.md run against a toy run's outputs."""
import re
from pathlib import Path

import pytest

from hdqn.config import load_config
from hdqn.harness import run_experiment

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)

# Each shipped config at seed 0, cut to a budget of well under a second.
TOY_RUNS = {
    "chain_hdqn.cfg": dict(episodes=20),
    "keydoor_hdqn.cfg": dict(
        pretrain_steps=500, episodes=3, step_limit=50, d1_capacity=1000, d1_warmup=16
    ),
}


@pytest.fixture(scope="module")
def toy_results(tmp_path_factory):
    """A directory whose results/ holds the files the blocks read."""
    root = tmp_path_factory.mktemp("readme")
    for name, overrides in TOY_RUNS.items():
        cfg = load_config(ROOT / "configs" / name, dict(overrides, seeds=(0,), workers=1))
        run_experiment(cfg, str(root / "results"))
    return root


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(toy_results, monkeypatch, index):
    monkeypatch.chdir(toy_results)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
