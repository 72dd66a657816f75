import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hdqn import metrics


def test_trailing_mean_expands_then_slides():
    out = metrics.trailing_mean([1.0, 2.0, 3.0, 4.0], window=2)
    np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])


def test_trailing_mean_window_one_is_identity():
    vals = [3.0, -1.0, 0.5]
    np.testing.assert_array_equal(metrics.trailing_mean(vals, 1), vals)


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=50),
)
def test_trailing_mean_matches_naive(values, window):
    out = metrics.trailing_mean(values, window)
    for i in range(len(values)):
        expect = np.mean(values[max(0, i + 1 - window) : i + 1])
        assert out[i] == pytest.approx(expect, abs=1e-9)


def test_trailing_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        metrics.trailing_sum([1.0], 0)
    with pytest.raises(ValueError):
        metrics.trailing_sum([[1.0, 2.0]], 2)


def test_windowed_ratio_zero_denominator():
    out = metrics.windowed_ratio([0, 1, 0], [0, 2, 0], window=1)
    np.testing.assert_allclose(out, [0.0, 0.5, 0.0])


def test_chain_columns_shapes_and_values():
    rewards = [0.01, 1.0, 0.01, 0.01]
    visits = np.zeros((4, 6), dtype=int)
    visits[1, 5] = 2  # two entries into the top state in episode 2
    visits[:, 2] = 1
    cols = metrics.chain_columns(rewards, visits, reward_window=2, visit_window=2)
    np.testing.assert_allclose(cols["reward_ma"], [0.01, 0.505, 0.505, 0.01])
    np.testing.assert_allclose(cols["visits_s6"], [0.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(cols["visits_s3"], [1.0, 1.0, 1.0, 1.0])


def test_keydoor_columns_fractions():
    rewards = [0.0, 100.0]
    picks = [[2, 0], [1, 1]]
    succ = [[1, 0], [1, 1]]
    cols = metrics.keydoor_columns(rewards, picks, succ, window=10)
    assert cols["pick_frac"].shape == cols["success_rate"].shape == (2, 2)
    np.testing.assert_allclose(cols["pick_frac"], [[1.0, 0.0], [0.75, 0.25]])
    np.testing.assert_allclose(cols["success_rate"], [[0.5, 0.0], [2 / 3, 1.0]])


def reference_cell(value) -> str:
    """Reference: the cell-at-a-time formatter the column formatter replaced."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def reference_csv(header, cols, seed=None, goal_names=()) -> str:
    """Reference: the CSV text, one cell and one row at a time."""
    per_episode = len(goal_names) if "goal" in header else 1
    lines = [",".join(header)]
    for ep in range(len(next(iter(cols.values())))):
        for k in range(per_episode):
            row = []
            for name in header:
                if name == "seed":
                    value = seed
                elif name == "episode":
                    value = ep + 1
                elif name == "goal":
                    value = goal_names[k]
                else:
                    col = np.asarray(cols[name])
                    value = col[ep, k] if col.ndim > 1 else col[ep]
                row.append(reference_cell(value))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# signed zeros, NaNs, infinities, subnormals, 2**53 < 1e16, inexact decimals
EDGE_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072e-308]
EDGE_FLOATS += [1e16, 0.1, 1 / 3]
# NaNs of both signs with distinct payloads, quiet and signalling: each is
# its own bit pattern, and every one prints as "nan"
NAN_PATTERNS = [0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001, -0x0007FFFFFFFFFFFF]
EDGE_FLOATS += list(np.array(NAN_PATTERNS, dtype=np.int64).view(np.float64))


@given(
    st.lists(
        st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True),
        min_size=0,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=4),
)
@example([0.0, -0.0, 0.0, -0.0], 1)
@example([np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e16], 3)
def test_format_column_matches_per_cell_reference(values, repeat):
    """Every float is printed as repr(float(x)), with -0.0 and 0.0 mixed
    in one block and repeated values included."""
    col = np.repeat(np.array(values, dtype=np.float64), repeat)
    assert metrics.format_column(col) == [reference_cell(x) for x in col]
    ints = np.arange(-3, len(values)) * 10**12
    assert metrics.format_column(ints) == [reference_cell(x) for x in ints]
    names = np.array(["key", "door", "key"], dtype=object)
    assert metrics.format_column(names) == ["key", "door", "key"]
    seeds = np.full(3, 2**64 - 1, dtype=object)
    assert metrics.format_column(seeds) == [str(2**64 - 1)] * 3


def test_format_column_keeps_every_nan_and_signed_zero():
    """Distinct NaN patterns and both zeros mixed in one column each map
    back to their own cell."""
    nans = np.array(NAN_PATTERNS, dtype=np.int64).view(np.float64)
    col = np.tile(np.concatenate([nans, [0.0, -0.0, np.nan, 1.5]]), 3)
    assert len(np.unique(col.view(np.int64))) == len(NAN_PATTERNS) + 4
    assert metrics.format_column(col) == [reference_cell(x) for x in col]


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    blocks = metrics.csv_blocks(("a", "b"), {"a": np.array([1, 2]), "b": np.array([0.5, 1 / 3])})
    metrics.write_csv(path, ("a", "b"), blocks)
    assert path.read_bytes() == b"a,b\n1,0.5\n2,0.3333333333333333\n"


def test_csv_blocks_match_per_cell_reference_across_blocks(tmp_path):
    """A 3-goal long-format file over more than two row blocks: 4096 % 3
    != 0, so a block holds 1365 whole episodes, 4095 rows. Then the
    aggregate over ragged seeds, whose later episodes have one seed and a
    0.0 SEM."""
    gen = np.random.default_rng(5)
    goals = ("a", "b", "c")
    per_seed = []
    for n in (3001, 2950, 2731):
        per_seed.append(
            {
                "reward_ma": gen.choice([0.0, -0.0, 0.25, 1e16, np.nan], size=n),
                "pick_frac": gen.integers(0, 7, size=(n, 3)) / 7.0,
                "success_rate": gen.random((n, 3)),
            }
        )
    assert 3001 * len(goals) > 2 * metrics._ROW_BLOCK
    path = tmp_path / "seed.csv"
    header = metrics.KEYDOOR_HEADER
    metrics.write_csv(path, header, metrics.csv_blocks(header, per_seed[0], 4, goals))
    assert path.read_bytes() == reference_csv(header, per_seed[0], 4, goals).encode()

    agg = metrics.aggregate(per_seed)
    header = metrics.KEYDOOR_AGGREGATE_HEADER
    path = tmp_path / "agg.csv"
    metrics.write_csv(path, header, metrics.csv_blocks(header, agg, goal_names=goals))
    assert path.read_bytes() == reference_csv(header, agg, goal_names=goals).encode()


def test_csv_blocks_repeated_values_fill_a_block_and_spill(tmp_path):
    """One value, and 0.0/-0.0 alternating, over a whole row block and
    into the next: the memo of each block holds one or two entries."""
    n = metrics._ROW_BLOCK + 5
    signed_zeros = np.zeros(n)
    signed_zeros[1::2] = -0.0
    nans = np.array(NAN_PATTERNS, dtype=np.int64).view(np.float64)
    cols = {
        "reward_ma": np.full(n, 0.1),
        "visits_s3": signed_zeros,
        "visits_s4": -signed_zeros,
        "visits_s5": np.resize(nans, n),
        "visits_s6": np.full(n, -0.0),
    }
    path = tmp_path / "chain.csv"
    header = metrics.CHAIN_HEADER
    metrics.write_csv(path, header, metrics.csv_blocks(header, cols, 7))
    assert path.read_bytes() == reference_csv(header, cols, 7).encode()
    last, first = path.read_text().splitlines()[metrics._ROW_BLOCK : metrics._ROW_BLOCK + 2]
    assert last == f"7,{metrics._ROW_BLOCK},0.1,-0.0,0.0,nan,-0.0"  # end of block one
    assert first == f"7,{metrics._ROW_BLOCK + 1},0.1,0.0,-0.0,nan,-0.0"  # start of block two


def failing_blocks():
    yield "1,2\n"
    raise RuntimeError("column went missing")


def test_failed_write_leaves_no_partial_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        metrics.write_csv(path, ("a", "b"), failing_blocks())
    assert list(tmp_path.iterdir()) == []

    metrics.write_csv(path, ("a", "b"), ["3,4\n"])
    with pytest.raises(RuntimeError):
        metrics.write_csv(path, ("a", "b"), failing_blocks())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"a,b\n3,4\n"


def test_atomic_open_binary_replaces_only_on_success(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"old")
    with pytest.raises(OSError):
        with metrics.atomic_open(path, "wb") as fh:
            fh.write(b"partial")
            raise OSError("disk full")
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old"
    with metrics.atomic_open(path, "wb") as fh:
        fh.write(b"new")
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"new"


def test_aggregate_mean_and_sem():
    cols = [{"m": np.array([1.0, 2.0])}, {"m": np.array([3.0, 6.0])}]
    agg = metrics.aggregate(cols)
    np.testing.assert_allclose(agg["m_mean"], [2.0, 4.0])
    expect_sem = np.array([np.std([1, 3], ddof=1), np.std([2, 6], ddof=1)]) / np.sqrt(2)
    np.testing.assert_allclose(agg["m_sem"], expect_sem)


def test_aggregate_single_seed_sem_zero():
    agg = metrics.aggregate([{"m": np.array([5.0])}])
    np.testing.assert_allclose(agg["m_mean"], [5.0])
    np.testing.assert_allclose(agg["m_sem"], [0.0])


def test_aggregate_ragged_lengths():
    cols = [{"m": np.array([1.0, 2.0, 3.0])}, {"m": np.array([3.0])}]
    agg = metrics.aggregate(cols)
    np.testing.assert_allclose(agg["m_mean"], [2.0, 2.0, 3.0])
    assert agg["m_sem"][1] == 0.0 and agg["m_sem"][2] == 0.0


def test_aggregate_mean_equals_arithmetic_mean_within_1e12():
    gen = np.random.default_rng(0)
    cols = [{"m": gen.normal(size=50)} for _ in range(7)]
    agg = metrics.aggregate(cols)
    manual = np.mean([c["m"] for c in cols], axis=0)
    assert np.max(np.abs(agg["m_mean"] - manual)) < 1e-12


def per_index_aggregate(per_seed_cols: list) -> dict:
    """Reference: the per-episode-index loop the masked aggregate replaced."""
    out = {}
    for name in per_seed_cols[0]:
        stacked = [np.asarray(cols[name]) for cols in per_seed_cols]
        n_max = max(len(arr) for arr in stacked)
        mean = np.empty(n_max)
        sem = np.zeros(n_max)
        for i in range(n_max):
            here = np.array([arr[i] for arr in stacked if len(arr) > i])
            mean[i] = here.mean()
            if len(here) > 1:
                sem[i] = here.std(ddof=1) / np.sqrt(len(here))
        out[f"{name}_mean"] = mean
        out[f"{name}_sem"] = sem
    return out


@pytest.mark.parametrize("n_seeds", range(1, 11))
def test_aggregate_matches_per_index_reference(n_seeds):
    """Bit-identical up to 7 ragged seeds. From 8 seeds on, numpy's 1-D
    sum in the reference switches to 8-way pairwise summation, so only
    the last bits may differ."""
    gen = np.random.default_rng(n_seeds)
    for _ in range(50):
        lengths = gen.integers(1, 30, size=n_seeds)
        cols = [{"m": gen.normal(size=n) * 10.0 ** gen.integers(-3, 3)} for n in lengths]
        got, want = metrics.aggregate(cols), per_index_aggregate(cols)
        for key in want:
            if n_seeds <= 7:
                np.testing.assert_array_equal(got[key], want[key])
            else:
                np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)


def left_to_right_aggregate(per_seed: list) -> tuple:
    """Reference: per index, the seeds that reached it summed one at a
    time in seed order, in plain Python floats."""
    mean, sem = [], []
    for i in range(max(map(len, per_seed))):
        here = [values[i] for values in per_seed if len(values) > i]
        n = len(here)
        total = here[0]
        for x in here[1:]:
            total += x
        m = total / n
        squares = 0.0
        for x in here:
            squares += (x - m) * (x - m)
        mean.append(m)
        sem.append(math.sqrt(squares / (n - 1)) / math.sqrt(n) if n > 1 else 0.0)
    return mean, sem


@pytest.mark.parametrize("n_seeds", range(1, 11))
def test_aggregate_is_the_left_to_right_sum_over_seeds(n_seeds):
    """Bit for bit, for ragged seeds and for calls of one episode, which
    is how aggregate_blocks meets a one-episode last block."""
    gen = np.random.default_rng(100 + n_seeds)
    for case in range(40):
        lengths = [1] * n_seeds if case % 4 == 0 else gen.integers(1, 5, size=n_seeds)
        per_seed = [(gen.normal(size=n) * 10.0 ** gen.integers(-3, 3)).tolist() for n in lengths]
        agg = metrics.aggregate([{"m": np.array(values)} for values in per_seed])
        mean, sem = left_to_right_aggregate(per_seed)
        assert agg["m_mean"].tobytes() == np.array(mean).tobytes()
        assert agg["m_sem"].tobytes() == np.array(sem).tobytes()


def test_aggregate_per_goal_columns_match_per_goal_aggregates():
    gen = np.random.default_rng(11)
    lengths = (5, 9, 7)
    cols = [{"p": gen.random((n, 3))} for n in lengths]
    agg = metrics.aggregate(cols)
    assert agg["p_mean"].shape == agg["p_sem"].shape == (9, 3)
    for g in range(3):
        ref = metrics.aggregate([{"p": c["p"][:, g]} for c in cols])
        np.testing.assert_array_equal(agg["p_mean"][:, g], ref["p_mean"])
        np.testing.assert_array_equal(agg["p_sem"][:, g], ref["p_sem"])


B = metrics._ROW_BLOCK
KB = metrics._ROW_BLOCK // 4  # episodes in a key-door block, 4 goals


@pytest.mark.parametrize(
    "header, goals, lengths",
    [
        # Seeds that end mid-block, one that ends exactly on a block
        # boundary, and one shorter than one block.
        (metrics.CHAIN_AGGREGATE_HEADER, (), (2 * B + 100, B + 7, B, 10)),
        # Per-goal 2-D columns in long format, with the same endings.
        (metrics.KEYDOOR_AGGREGATE_HEADER, ("a", "b", "c", "d"), (2 * KB + 100, KB + 7, KB, 10)),
        # Nine seeds, six of them one episode past a block: the last block
        # holds one episode.
        (metrics.CHAIN_AGGREGATE_HEADER, (), (2 * B + 1,) * 6 + (2 * B, B, 5)),
    ],
    ids=["chain", "keydoor", "one-episode-tail"],
)
def test_aggregate_blocks_equal_the_whole_run_aggregate(header, goals, lengths):
    gen = np.random.default_rng(len(lengths))
    names = [name[: -len("_mean")] for name in header if name.endswith("_mean")]
    per_seed = []
    for n in lengths:
        shape = (n, len(goals)) if goals else (n,)
        cols = {name: gen.normal(size=shape) * 10.0 ** gen.integers(-3, 3) for name in names}
        cols[names[0]] = cols[names[0]].reshape(n, -1)[:, 0]  # reward_ma is per episode
        per_seed.append(cols)
    whole = metrics.csv_blocks(header, metrics.aggregate(per_seed), goal_names=goals)
    assert "".join(metrics.aggregate_blocks(header, per_seed, goals)) == "".join(whole)


def test_row_generators():
    cols = {
        "reward_ma": np.array([0.5]),
        "visits_s3": np.array([1.0]),
        "visits_s4": np.array([2.0]),
        "visits_s5": np.array([3.0]),
        "visits_s6": np.array([4.0]),
    }
    assert list(metrics.csv_blocks(metrics.CHAIN_HEADER, cols, 9)) == ["9,1,0.5,1.0,2.0,3.0,4.0\n"]

    kcols = {
        "reward_ma": np.array([7.0, 8.0]),
        "pick_frac": np.array([[0.25, 0.75], [0.5, 0.5]]),
        "success_rate": np.array([[1.0, 0.5], [0.0, 1.0]]),
    }
    ktext = "".join(metrics.csv_blocks(metrics.KEYDOOR_HEADER, kcols, 2, ("key", "door")))
    assert ktext.splitlines() == [
        "2,1,7.0,key,0.25,1.0",
        "2,1,7.0,door,0.75,0.5",
        "2,2,8.0,key,0.5,0.0",
        "2,2,8.0,door,0.5,1.0",
    ]
    assert ktext.endswith("\n")

    agg = metrics.aggregate([kcols, kcols])
    arows = "".join(
        metrics.csv_blocks(metrics.KEYDOOR_AGGREGATE_HEADER, agg, goal_names=("key", "door"))
    ).splitlines()
    assert arows[1] == "1,door,7.0,0.0,0.75,0.0,0.5,0.0"
    assert len(arows) == 4

    # one chunk per block of rows, each holding whole lines
    n = metrics._ROW_BLOCK + 1
    chunks = list(metrics.csv_blocks(("episode", "m"), {"m": np.zeros(n)}))
    assert [c.count("\n") for c in chunks] == [metrics._ROW_BLOCK, 1]
    assert chunks[1] == f"{n},0.0\n"
    assert list(metrics.csv_blocks(("episode", "m"), {"m": np.zeros(0)})) == []


def test_row_generator_rejects_mismatched_columns():
    cols = {"reward_ma": np.array([1.0, 2.0]), "visits_s3": np.array([1.0])}
    with pytest.raises(ValueError):
        list(metrics.csv_blocks(("episode", "reward_ma", "visits_s3"), cols))


def test_aggregate_headers():
    assert metrics.CHAIN_AGGREGATE_HEADER == (
        "episode",
        "reward_ma_mean",
        "reward_ma_sem",
        "visits_s3_mean",
        "visits_s3_sem",
        "visits_s4_mean",
        "visits_s4_sem",
        "visits_s5_mean",
        "visits_s5_sem",
        "visits_s6_mean",
        "visits_s6_sem",
    )
    assert metrics.KEYDOOR_AGGREGATE_HEADER == (
        "episode",
        "goal",
        "reward_ma_mean",
        "reward_ma_sem",
        "pick_frac_mean",
        "pick_frac_sem",
        "success_rate_mean",
        "success_rate_sem",
    )
