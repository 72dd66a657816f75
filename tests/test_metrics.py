import numpy as np
import pytest
from hypothesis import given
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


def test_format_cell():
    assert metrics.format_cell(3) == "3"
    assert metrics.format_cell(np.int64(3)) == "3"
    assert metrics.format_cell("door") == "door"
    assert metrics.format_cell(0.1) == "0.1"
    assert metrics.format_cell(np.float64(1 / 3)) == repr(1 / 3)


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    metrics.write_csv(path, ("a", "b"), [[1, 0.5], [2, 1 / 3]])
    assert path.read_bytes() == b"a,b\n1,0.5\n2,0.3333333333333333\n"


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


def test_row_generators():
    cols = {
        "reward_ma": np.array([0.5]),
        "visits_s3": np.array([1.0]),
        "visits_s4": np.array([2.0]),
        "visits_s5": np.array([3.0]),
        "visits_s6": np.array([4.0]),
    }
    rows = list(metrics.csv_rows(metrics.CHAIN_HEADER, cols, 9))
    assert rows == [(9, 1, 0.5, 1.0, 2.0, 3.0, 4.0)]

    kcols = {
        "reward_ma": np.array([7.0, 8.0]),
        "pick_frac": np.array([[0.25, 0.75], [0.5, 0.5]]),
        "success_rate": np.array([[1.0, 0.5], [0.0, 1.0]]),
    }
    krows = list(metrics.csv_rows(metrics.KEYDOOR_HEADER, kcols, 2, ("key", "door")))
    assert krows == [
        (2, 1, 7.0, "key", 0.25, 1.0),
        (2, 1, 7.0, "door", 0.75, 0.5),
        (2, 2, 8.0, "key", 0.5, 0.0),
        (2, 2, 8.0, "door", 0.5, 1.0),
    ]

    agg = metrics.aggregate([kcols, kcols])
    arows = list(
        metrics.csv_rows(metrics.KEYDOOR_AGGREGATE_HEADER, agg, goal_names=("key", "door"))
    )
    assert arows[1] == (1, "door", 7.0, 0.0, 0.75, 0.0, 0.5, 0.0)
    assert len(arows) == 4


def test_row_generator_rejects_mismatched_columns():
    cols = {"reward_ma": np.array([1.0, 2.0]), "visits_s3": np.array([1.0])}
    with pytest.raises(ValueError):
        list(metrics.csv_rows(("episode", "reward_ma", "visits_s3"), cols))


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
