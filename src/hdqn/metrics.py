"""Per-episode metric columns, CSV emission and cross-seed aggregation.

All columns are trailing-window statistics computed after training from
raw per-episode tallies, so logging costs nothing during the run and two
identical runs serialize to identical bytes. Floats are written with
repr(), the shortest round-trip form.

A column holds one value per episode, or one per goal per episode as an
(episodes, n_goals) array. One writer serves every CSV: the header names
the columns, and a header with a "goal" column gets one row per goal per
episode (long format).

CSV text is made a row block at a time: a block holds _ROW_BLOCK //
goals whole episodes, and each of its columns is sliced, formatted and
joined into one text chunk, so the writer holds one block of cells and
arrays whatever the run's length. A float64 column of a block is
formatted once per distinct bit pattern, because chain curves repeat a
few thousand values across tens of thousands of rows; every other
column goes through str cell by cell. Keying on bits, not values, keeps
0.0 and -0.0 apart and gives every NaN its own entry. The memo is a
dict, so no sort runs. The cross-seed aggregate is computed a block at
a time too, from the seeds' slices of the block's episodes, with the
same bits as over the whole run. A CSV or checkpoint is written to a
temporary sibling that replaces the target only once it is complete,
so an error never leaves a half-written file.
"""
from __future__ import annotations

import contextlib
import os

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

_ROW_BLOCK = 4096  # rows formatted into one text chunk at a time by csv_blocks
_MADE = ("seed", "episode", "goal")  # csv_blocks names that are not columns of cols

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
    cum = np.cumsum(arr)
    # Entry i is cum[i] - cum[i - window], or cum[i] while the window is
    # still expanding; only the result is allocated beside the cumsum.
    out = cum.copy()
    np.subtract(out[window:], cum[:-window], out=out[window:])
    return out


def trailing_mean(values, window: int) -> np.ndarray:
    sums = trailing_sum(values, window)
    head = min(window, len(sums))
    sums[:head] /= np.arange(1, head + 1)
    sums[head:] /= window
    return sums


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

    visit_counts: (episodes, n_states) per-episode entry tallies; each
    reported column is converted to float64 on its own.
    """
    visits = np.asarray(visit_counts)
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


def format_column(col: np.ndarray) -> list:
    """The CSV text of each value of a 1-D column: str of each value.

    A float64 column is keyed by its int64 bit patterns, each distinct
    pattern is formatted once through its float, and the keys are mapped
    back to their text in column order.
    """
    if col.dtype != np.float64:
        return list(map(str, col.tolist()))
    bits = col.view(np.int64).tolist()
    keys = dict.fromkeys(bits)
    floats = np.fromiter(keys, np.int64, len(keys)).view(np.float64).tolist()
    text = dict(zip(keys, map(str, floats)))
    return list(map(text.__getitem__, bits))


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open a temporary sibling of path that replaces path on a clean exit.

    On an exception the temporary file is removed and path is left as it
    was, absent or whole.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, blocks) -> None:
    """Write the header line, then each text chunk of blocks, atomically."""
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def csv_blocks(header, cols: dict, seed: int | None = None, goal_names=(), first_episode=1):
    """CSV text in header order, one chunk of whole lines per row block.

    "seed" is the given seed, "episode" the episode index counted from
    first_episode and "goal" the goal name; every other name is a column
    of cols. With a "goal" column there is one row per goal per episode,
    episode-major, and a per-episode column repeats across its episode's
    rows. A block holds _ROW_BLOCK // goals whole episodes; its cells
    are made and formatted a column at a time, so the strings and arrays
    alive depend on the block, not on the run.
    """
    per_episode = len(goal_names) if "goal" in header else 1
    n_episodes = len(next(iter(cols.values())))
    n_rows = n_episodes * per_episode
    arrays = {name: np.asarray(cols[name]) for name in header if name not in _MADE}
    for name, col in arrays.items():
        size = col.size if col.ndim > 1 else len(col) * per_episode
        if size != n_rows:
            raise ValueError(f"column {name!r} has {size} values for {n_rows} rows")
    seed_text, goals = str(seed), list(map(str, goal_names))

    def cells(name, lo, hi) -> list:
        if name == "seed":
            return [seed_text] * ((hi - lo) * per_episode)
        if name == "goal":
            return goals * (hi - lo)
        if name == "episode":
            col = np.arange(lo + first_episode, hi + first_episode)
        else:
            col = arrays[name][lo:hi]
        if col.ndim > 1:
            return format_column(col.ravel())
        return format_column(col.repeat(per_episode) if per_episode > 1 else col)

    step = _ROW_BLOCK // per_episode
    for lo in range(0, n_episodes, step):
        hi = min(lo + step, n_episodes)
        yield _block_text(cells(name, lo, hi) for name in header)


def _block_text(texts) -> str:
    """CSV lines of an iterable of equal-length lists of cell text, as one
    newline-ended chunk.

    The cell lists are freed once the lines are made, before they are
    joined, and the lines before the chunk is written.
    """
    lines = list(map(",".join, zip(*texts)))
    lines.append("")
    return "\n".join(lines)


def aggregate_blocks(header, per_seed_cols: list, goal_names=()):
    """The bytes of csv_blocks(header, aggregate(per_seed_cols), goal_names=
    goal_names), aggregated one row block at a time.

    Each block applies aggregate to every seed's slice of its episodes; a
    seed that has ended gives an empty slice. aggregate sums each index
    over its seeds in seed order, whatever the episodes around it, so a
    block gives the bits the whole run gives.
    """
    step = _ROW_BLOCK // (len(goal_names) if "goal" in header else 1)
    n_max = max(len(next(iter(cols.values()))) for cols in per_seed_cols)
    for lo in range(0, n_max, step):
        part = [{name: col[lo : lo + step] for name, col in cols.items()} for cols in per_seed_cols]
        yield from csv_blocks(header, aggregate(part), goal_names=goal_names, first_episode=lo + 1)


def aggregate(per_seed_cols: list) -> dict:
    """Cross-seed mean and standard error per episode index.

    Seeds may have different episode counts (step-budgeted phases); each
    index aggregates the seeds that reached it. SEM uses ddof=1 and is
    0.0 where only one seed contributes. Sums run seed by seed, each
    seed added over its own length, so an index's value is the
    left-to-right sum over the seeds that reached it.
    """
    lengths = [len(next(iter(cols.values()))) for cols in per_seed_cols]
    count = np.zeros(max(lengths), dtype=np.int64)
    for n in lengths:
        count[:n] += 1
    out = {}
    for name in per_seed_cols[0]:
        cols = [np.asarray(seed_cols[name]) for seed_cols in per_seed_cols]
        n = count.reshape(count.shape + (1,) * (cols[0].ndim - 1))
        total = np.zeros(n.shape[:1] + cols[0].shape[1:])
        total[: lengths[0]] = cols[0]
        for col in cols[1:]:
            total[: len(col)] += col
        mean = total / n
        squares = np.zeros_like(total)
        for col in cols:
            dev = col - mean[: len(col)]
            squares[: len(col)] += dev * dev
        var = squares / np.maximum(n - 1, 1)
        out[f"{name}_mean"] = mean
        out[f"{name}_sem"] = np.where(n > 1, np.sqrt(var) / np.sqrt(n), 0.0)
    return out
