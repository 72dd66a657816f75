"""Pinned CSV bytes for tiny-budget runs of every shipped config.

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
before CSVs were formatted a column at a time. Checkpoint bytes are
deliberately not pinned; their format is versioned.
"""
import hashlib
import pathlib

import pytest

from hdqn.config import load_config
from hdqn.harness import run_experiment

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# config file -> (budget overrides, {csv name: sha256})
PINNED = {
    # 2000 episodes is about 2.3k options per seed against d2_warmup = 100,
    # so both levels train and a change to learning moves these bytes.
    "chain_hdqn.cfg": (
        {"seeds": (0, 1), "episodes": 2000},
        {
            "chain_hdqn_seed0.csv": "ab9db604d9ef6c21bc8fb23632de133cc99b54374c7fe36b53887bbdb00cd8eb",
            "chain_hdqn_seed1.csv": "f5cfec455eab76a231ed89a7c761f36cd2041f3d5e52850f3e1d3bb61ff794c4",
            "chain_hdqn_aggregate.csv": "b1713fedb75bad59c1a9cf6599f127538faedd12c273b0ccc813e65e4905b93b",
        },
    ),
    # 5000 episodes is more than one metrics._ROW_BLOCK (4096 rows), so
    # every file here is written in two blocks.
    "chain_flat.cfg": (
        {"seeds": (0, 1), "episodes": 5000},
        {
            "chain_flat_seed0.csv": "9b6f5bd7c06e262efaf12ccb6228d7e567124badb104c3084d0e1be2b35d92ef",
            "chain_flat_seed1.csv": "4ecbf096568d2248ebe0eae55607a0541a68945a94ba54496241e41fecea912c",
            "chain_flat_aggregate.csv": "9067e5adc7238898f52058354297495f5b5ca2fbcec0db25d34c7c5e6bd6e1c3",
        },
    ),
    # Pretraining runs whole episodes until its step budget is spent, so
    # the three seeds log 14, 20 and 14 episodes: the ragged aggregate path.
    "keydoor_hdqn.cfg": (
        {"seeds": (0, 1, 2), "pretrain_steps": 3000, "episodes": 5},
        {
            "keydoor_hdqn_seed0.csv": "fef0b8d4640f8d3969ccc9108f07439e4b608d20c24be6e05cb178c1f42fbb66",
            "keydoor_hdqn_seed1.csv": "f9f823fd774d308072bd695a84606fcdcaa3da453c0698947c5bf0584ef1a8a5",
            "keydoor_hdqn_seed2.csv": "7aac9d86645f87b47f710e17e550be3a854bf4f6c7112954848c68312c405548",
            "keydoor_hdqn_aggregate.csv": "cea1e0c33ce78a087b83424e7bf96f4d03ccaddc20e8cd09914b1362e33817b8",
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
