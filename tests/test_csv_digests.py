"""Pinned CSV bytes for tiny-budget runs of every shipped config.

This is the byte baseline: the digests were recorded before the CSV row
writer and the cross-seed aggregate were rewritten, and must not move
under refactors. A change that alters RNG consumption or the output
format sets a new baseline here and says so in CHANGES.md. Checkpoint
bytes are deliberately not pinned; their format is versioned.
"""
import hashlib
import pathlib

import pytest

from hdqn.config import load_config
from hdqn.harness import run_experiment

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# config file -> (budget overrides, {csv name: sha256})
PINNED = {
    "chain_hdqn.cfg": (
        {"seeds": (0, 1), "episodes": 300},
        {
            "chain_hdqn_seed0.csv": "2c04d146f8e40ec6dceadc4a478510470064fc916006753f9c34835cecaedf0c",
            "chain_hdqn_seed1.csv": "ea89bdb9cb67dfc98299fcbfe3c654f7e7d39989ec6227467013cc8e9d4c4335",
            "chain_hdqn_aggregate.csv": "26fbb3be217897733c02fc66ae1597372059bd562fb1bf400845054df64185ad",
        },
    ),
    "chain_flat.cfg": (
        {"seeds": (0, 1), "episodes": 300},
        {
            "chain_flat_seed0.csv": "320539e54b428b1cd98a5693cb7d6bad667f4324339b6c194aebce8b39dec262",
            "chain_flat_seed1.csv": "a60902f8eceb86390c09a95f382d744b21f0ed9dbf5a395be460de45df6c2aea",
            "chain_flat_aggregate.csv": "e81c834bc0f386a6d12bbb924f622e8f6bd475a8abd661e46d4c221265af397d",
        },
    ),
    # Pretraining runs whole episodes until its step budget is spent, so
    # the three seeds log 14, 20 and 14 episodes: the ragged aggregate path.
    "keydoor_hdqn.cfg": (
        {"seeds": (0, 1, 2), "pretrain_steps": 3000, "episodes": 5},
        {
            "keydoor_hdqn_seed0.csv": "fef0b8d4640f8d3969ccc9108f07439e4b608d20c24be6e05cb178c1f42fbb66",
            "keydoor_hdqn_seed1.csv": "e3ab9a93e4e0106c5d308454ca2e4f02d900087d342d4287490bd21c5039d644",
            "keydoor_hdqn_seed2.csv": "ac5226cbf1a67d97cc689d13c06b9f6039dca6200ee56026cb2381c1371883a5",
            "keydoor_hdqn_aggregate.csv": "52d27de36e27c00d6cce002911664d6217d942586f6c8ab8efdb278c99545dd8",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_csv_bytes_pinned(name, tmp_path):
    overrides, digests = PINNED[name]
    cfg = load_config(
        CONFIGS / name, dict(overrides, workers=1, out_dir=str(tmp_path))
    )
    got = {
        pathlib.Path(p).name: hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
        for p in run_experiment(cfg)
        if p.endswith(".csv")
    }
    assert got == digests
