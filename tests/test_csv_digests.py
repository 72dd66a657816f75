"""Pinned output bytes, CSVs and checkpoints, for tiny-budget runs of
every shipped config.

This is the byte baseline: the digests were recorded before the CSV row
writer and the cross-seed aggregate were rewritten, and must not move
under refactors. A change that alters RNG consumption or the output
format sets a new baseline here and says so in CHANGES.md; the key-door
digests were last re-recorded when replay began drawing its indices in
blocks and the tabular update became batch-synchronous. The chain hdqn
pin runs 2000 episodes: at 300 its bytes did not move under that same
learning change, so it could not catch one. The flat chain
digests have never moved: that agent has no replay. Its pin runs 5000
episodes so that each of its files crosses a row-block boundary of the
CSV writer; those digests were recorded with the cell-at-a-time writer,
before CSVs were formatted a column at a time.

Checkpoint digests pin the value tables, the tracker windows and the
key-door layout text byte for byte; they were re-recorded for
checkpoint version 3, which stores each fact once and writes a
network's target_sync, with no CSV digest moving. The key-door
pin lowers d2_warmup so that the meta level trains in every seed (at
the shipped 1000 the meta memory holds 19 to 34 options here), and
the MLP pin is the only digest of the network backend.
"""
import hashlib
import pathlib

import pytest

from hdqn.config import load_config
from hdqn.harness import run_experiment

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# pin id -> (config file, budget overrides, {output file name: sha256})
PINNED = {
    # 2000 episodes is about 2.3k options per seed against d2_warmup = 100,
    # so both levels train and a change to learning moves these bytes.
    "chain_hdqn.cfg": (
        "chain_hdqn.cfg",
        {"seeds": (0, 1), "episodes": 2000},
        {
            "chain_hdqn_seed0.csv": "ab9db604d9ef6c21bc8fb23632de133cc99b54374c7fe36b53887bbdb00cd8eb",
            "chain_hdqn_seed0.ckpt": "f72c596b10b88f4c72fd2ecaee27cd19ba2fa566c496cdbdde61c4c168f69ab2",
            "chain_hdqn_seed1.csv": "f5cfec455eab76a231ed89a7c761f36cd2041f3d5e52850f3e1d3bb61ff794c4",
            "chain_hdqn_seed1.ckpt": "21f3848d0d316a3e66ecacabfa06476751cee667e4096f99891b3d84dae7e6c9",
            "chain_hdqn_aggregate.csv": "b1713fedb75bad59c1a9cf6599f127538faedd12c273b0ccc813e65e4905b93b",
        },
    ),
    # About 1.2k controller and 950 meta SGD steps, so the controller's
    # target snapshot syncs once (target_sync = 1000).
    "chain_hdqn_mlp": (
        "chain_hdqn.cfg",
        {"seeds": (0,), "episodes": 300, "backend": "mlp"},
        {
            "chain_hdqn_seed0.csv": "87772133e5ef523663f44bf86182f467302026e3df74bf3783c2793f4ad51485",
            "chain_hdqn_seed0.ckpt": "d09a788b391a3571688104fa3aeca59d137228bd336711ee2eb0e2eb5b466fca",
            "chain_hdqn_aggregate.csv": "1a6505d05b82f8f75e3835df57f56aac7e70a6ed00fef500e22212f0bef50db5",
        },
    ),
    # 5000 episodes is more than one metrics._ROW_BLOCK (4096 rows), so
    # every file here is written in two blocks.
    "chain_flat.cfg": (
        "chain_flat.cfg",
        {"seeds": (0, 1), "episodes": 5000},
        {
            "chain_flat_seed0.csv": "9b6f5bd7c06e262efaf12ccb6228d7e567124badb104c3084d0e1be2b35d92ef",
            "chain_flat_seed0.ckpt": "5a0987f307c0b267516443fa7a93b82c13c1d828ececc3c6d01f126ae982591c",
            "chain_flat_seed1.csv": "4ecbf096568d2248ebe0eae55607a0541a68945a94ba54496241e41fecea912c",
            "chain_flat_seed1.ckpt": "7cea02e4e0f4e4e670c3b34d1c419ea97f852e2de43f829efbe587b70fbc44c9",
            "chain_flat_aggregate.csv": "9067e5adc7238898f52058354297495f5b5ca2fbcec0db25d34c7c5e6bd6e1c3",
        },
    ),
    # Pretraining runs whole episodes until its step budget is spent, so
    # the three seeds log 14, 20 and 14 episodes: the ragged aggregate path.
    # Meta exploration is still near 1 here, so d2_warmup moves only the
    # checkpoints: the CSV digests are those recorded at the shipped 1000.
    "keydoor_hdqn.cfg": (
        "keydoor_hdqn.cfg",
        {"seeds": (0, 1, 2), "pretrain_steps": 3000, "episodes": 5, "d2_warmup": 10},
        {
            "keydoor_hdqn_seed0.csv": "fef0b8d4640f8d3969ccc9108f07439e4b608d20c24be6e05cb178c1f42fbb66",
            "keydoor_hdqn_seed0.ckpt": "03d1f9ff0afca8f81e137fda22d34b15cb84c73beedfff1a52ea07efaaa186ef",
            "keydoor_hdqn_seed1.csv": "f9f823fd774d308072bd695a84606fcdcaa3da453c0698947c5bf0584ef1a8a5",
            "keydoor_hdqn_seed1.ckpt": "9f98c06a85840a611a02abc3b11e0b0bffeffa95e2e3260e4c453a9bc4e542ae",
            "keydoor_hdqn_seed2.csv": "7aac9d86645f87b47f710e17e550be3a854bf4f6c7112954848c68312c405548",
            "keydoor_hdqn_seed2.ckpt": "076efee8b81938223f20ad503575a78ec66126d528fe21d9a97a084d5da9b7cb",
            "keydoor_hdqn_aggregate.csv": "cea1e0c33ce78a087b83424e7bf96f4d03ccaddc20e8cd09914b1362e33817b8",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_csv_bytes_pinned(name, tmp_path):
    config_file, overrides, digests = PINNED[name]
    cfg = load_config(
        CONFIGS / config_file, dict(overrides, workers=1, out_dir=str(tmp_path))
    )
    got = {
        pathlib.Path(p).name: hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
        for p in run_experiment(cfg)
    }
    assert got == digests
