"""Per-episode metric columns, CSV emission and cross-seed aggregation.

All columns are trailing-window statistics computed after training from
raw per-episode tallies, so logging costs nothing during the run and two
identical runs serialize to identical bytes. Floats are written with
repr(), the shortest round-trip form.

A column holds one value per episode, or one per goal per episode as an
(episodes, n_goals) array. One row writer serves every CSV: the header
names the columns, and a header with a "goal" column gets one row per
goal per episode (long format).
"""
from __future__ import annotations

import numpy as np

CHAIN_STATES = ("s3", "s4", "s5", "s6")  # reported visit columns, ids 2..5
CHAIN_METRICS = ("reward_ma",) + tuple(f"visits_{name}" for name in CHAIN_STATES)
KEYDOOR_METRICS = ("reward_ma", "pick_frac", "success_rate")


def _mean_sem(names) -> tuple:
    return tuple(f"{name}_{stat}" for name in names for stat in ("mean", "sem"))


CHAIN_HEADER = ("seed", "episode") + CHAIN_METRICS
KEYDOOR_HEADER = ("seed", "episode", "reward_ma", "goal", "pick_frac", "success_rate")
CHAIN_AGGREGATE_HEADER = ("episode",) + _mean_sem(CHAIN_METRICS)
KEYDOOR_AGGREGATE_HEADER = ("episode", "goal") + _mean_sem(KEYDOOR_METRICS)

_ROW_BLOCK = 4096  # rows turned into Python objects at a time by csv_rows

# env -> (per-seed header, aggregate header)
HEADERS = {
    "chain": (CHAIN_HEADER, CHAIN_AGGREGATE_HEADER),
    "keydoor": (KEYDOOR_HEADER, KEYDOOR_AGGREGATE_HEADER),
}


def trailing_sum(values, window: int) -> np.ndarray:
    """Sliding-window sum; the window expands until `window` entries exist."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("trailing_sum expects a 1-D sequence")
    n = arr.shape[0]
    c = np.concatenate(([0.0], np.cumsum(arr)))
    lo = np.maximum(0, np.arange(1, n + 1) - window)
    return c[1:] - c[lo]


def trailing_mean(values, window: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    sums = trailing_sum(arr, window)
    n = arr.shape[0]
    counts = np.minimum(np.arange(1, n + 1), window)
    return sums / counts


def windowed_ratio(numerators, denominators, window: int) -> np.ndarray:
    """Windowed sum(num)/sum(den), 0.0 wherever the denominator sum is 0."""
    num = trailing_sum(numerators, window)
    den = trailing_sum(denominators, window)
    out = np.zeros_like(num)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def chain_columns(rewards, visit_counts, reward_window: int, visit_window: int) -> dict:
    """Column arrays for one chain seed.

    visit_counts: (episodes, n_states) per-episode entry tallies.
    """
    visits = np.asarray(visit_counts, dtype=np.float64)
    cols = {"reward_ma": trailing_mean(rewards, reward_window)}
    for offset, name in enumerate(CHAIN_STATES):
        cols[f"visits_{name}"] = trailing_mean(visits[:, offset + 2], visit_window)
    return cols


def keydoor_columns(rewards, pick_counts, success_counts, window: int) -> dict:
    """Column arrays for one key-door seed.

    pick_counts/success_counts: (episodes, n_goals) per-episode tallies.
    pick_frac and success_rate are (episodes, n_goals) arrays.
    """
    picks = np.asarray(pick_counts, dtype=np.float64)
    succ = np.asarray(success_counts, dtype=np.float64)
    total_picks = picks.sum(axis=1)
    goals = range(picks.shape[1])
    return {
        "reward_ma": trailing_mean(rewards, window),
        "pick_frac": np.column_stack(
            [windowed_ratio(picks[:, g], total_picks, window) for g in goals]
        ),
        "success_rate": np.column_stack(
            [windowed_ratio(succ[:, g], picks[:, g], window) for g in goals]
        ),
    }


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(cell) for cell in row) + "\n")


def csv_rows(header, cols: dict, seed: int | None = None, goal_names=()):
    """CSV rows in header order, as tuples.

    "seed" is the given seed, "episode" the 1-based episode index and
    "goal" the goal name; every other name is a column of cols. With a
    "goal" column there is one row per goal per episode, episode-major,
    and a per-episode column repeats across its episode's rows. Each
    name is resolved to a whole column once; the columns are then zipped
    a block of rows at a time, which bounds the Python objects alive.
    """
    per_episode = len(goal_names) if "goal" in header else 1
    n_episodes = len(next(iter(cols.values())))
    n_rows = n_episodes * per_episode

    def column(name) -> np.ndarray:
        if name == "seed":
            return np.full(n_rows, seed, dtype=object)
        if name == "episode":
            return np.arange(n_rows) // per_episode + 1
        if name == "goal":
            return np.tile(np.asarray(goal_names, dtype=object), n_episodes)
        col = np.asarray(cols[name])
        return col.ravel() if col.ndim > 1 else col.repeat(per_episode)

    columns = [column(name) for name in header]
    for name, col in zip(header, columns):
        if len(col) != n_rows:
            raise ValueError(f"column {name!r} has {len(col)} values for {n_rows} rows")
    for lo in range(0, n_rows, _ROW_BLOCK):
        yield from zip(*[col[lo : lo + _ROW_BLOCK].tolist() for col in columns])


def aggregate(per_seed_cols: list) -> dict:
    """Cross-seed mean and standard error per episode index.

    Seeds may have different episode counts (step-budgeted phases); each
    index aggregates the seeds that reached it. SEM uses ddof=1 and is
    0.0 where only one seed contributes. Shorter seeds are zero-padded
    and masked out, so equal and ragged lengths take the same path.
    """
    lengths = np.array([len(next(iter(cols.values()))) for cols in per_seed_cols])
    n_max = int(lengths.max())
    present = np.arange(n_max) < lengths[:, None]  # (seeds, episodes)
    count = present.sum(axis=0)
    out = {}
    for name in per_seed_cols[0]:
        trailing = np.shape(per_seed_cols[0][name])[1:]
        block = np.zeros((len(per_seed_cols), n_max) + trailing)
        for k, cols in enumerate(per_seed_cols):
            block[k, : lengths[k]] = cols[name]
        extra = (1,) * len(trailing)
        mask = present.reshape(present.shape + extra)
        n = count.reshape(count.shape + extra)
        mean = block.sum(axis=0) / n
        dev = np.where(mask, block - mean, 0.0)
        var = (dev * dev).sum(axis=0) / np.maximum(n - 1, 1)
        out[f"{name}_mean"] = mean
        out[f"{name}_sem"] = np.where(n > 1, np.sqrt(var) / np.sqrt(n), 0.0)
    return out
