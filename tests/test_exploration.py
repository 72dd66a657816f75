import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import hdqn_agent
from hdqn import rng
from hdqn.agents.exploration import EpsilonSchedule, GoalSuccessTracker, eps_greedy
from hdqn.envs.chain import ChainEnv


def test_schedule_endpoints_and_midpoint():
    eps = EpsilonSchedule(floor=0.1, horizon=50_000)
    assert eps.value(0) == 1.0
    assert eps.value(25_000) == pytest.approx(0.55)
    assert eps.value(50_000) == 0.1
    assert eps.value(10**9) == 0.1


@given(st.integers(0, 200_000), st.integers(0, 200_000))
def test_schedule_monotone_nonincreasing(t1, t2):
    eps = EpsilonSchedule(floor=0.1, horizon=50_000)
    lo, hi = sorted((t1, t2))
    assert eps.value(hi) <= eps.value(lo)
    assert 0.1 <= eps.value(t1) <= 1.0


def test_schedule_validation():
    """A schedule anneals from 1, so its floor lies in [0, 1]."""
    for floor in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            EpsilonSchedule(floor=floor, horizon=10)
    with pytest.raises(ValueError):
        EpsilonSchedule(horizon=0)
    assert EpsilonSchedule(floor=1.0, horizon=10).value(5) == 1.0


def test_greedy_breaks_ties_to_lowest_index():
    gen = rng.stream(0, rng.META)
    nan = float("nan")
    for values, best in (
        ([1.0, 1.0, 1.0], 0),
        ([0.0, 2.0, 2.0], 1),
        ([0.3, 0.1], 0),
        ([-0.0, 0.0], 0),
        ([0.0, -0.0, 0.0], 0),
        ([nan, 1.0], 0),
        ([1.0, nan, 2.0], 2),
    ):
        assert eps_greedy(values, 0.0, gen) == best, values


def test_full_exploration_is_roughly_uniform():
    gen = rng.stream(11, rng.META)
    picks = [eps_greedy([5.0, 0.0, 0.0, 0.0], 1.0, gen) for _ in range(8000)]
    counts = np.bincount(picks, minlength=4)
    assert counts.min() > 1800  # greedy choice would pin everything on 0


def test_eps_greedy_deterministic_given_generator_state():
    a = eps_greedy([0.0, 1.0], 0.3, rng.stream(5, rng.CONTROLLER))
    b = eps_greedy([0.0, 1.0], 0.3, rng.stream(5, rng.CONTROLLER))
    assert a == b


def controller(floor=0.1):
    """A chain agent with a 100-outcome tracker window, whose
    controller_epsilon is its tracker's term: at step 0 eps1 reads 1."""
    return hdqn_agent(ChainEnv(), eps1=EpsilonSchedule(floor=floor), tracker_window=100)


def test_tracker_rates_and_epsilon():
    agent = controller()
    tr = agent.tracker
    assert tr.success_rate(0) == 0.0
    assert agent.controller_epsilon(0) == 1.0
    for _ in range(50):
        tr.record(0, True)
        tr.record(0, False)
    assert len(tr.dump()[0]) == 100
    assert tr.success_rate(0) == pytest.approx(0.5)
    assert agent.controller_epsilon(0) == pytest.approx(0.5)
    assert agent.controller_epsilon(1) == 1.0  # untouched goal


def test_tracker_window_slides():
    agent = controller()
    tr = agent.tracker
    for _ in range(100):
        tr.record(0, False)
    assert agent.controller_epsilon(0) == 1.0
    for _ in range(100):
        tr.record(0, True)
    assert len(tr.dump()[0]) == 100
    assert tr.success_rate(0) == 1.0
    assert agent.controller_epsilon(0) == 0.1  # floored at eps1's floor


@given(st.lists(st.booleans(), max_size=300), st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_tracker_epsilon_bounds(outcomes, floor):
    agent = controller(floor=floor)
    tr = agent.tracker
    for o in outcomes:
        tr.record(0, o)
    assert floor <= agent.controller_epsilon(0) <= 1.0
    assert agent.controller_epsilon(0) == max(floor, 1.0 - tr.success_rate(0))
    assert 0.0 <= tr.success_rate(0) <= 1.0
    assert tr.dump()[0] == outcomes[-100:]


def test_tracker_dump_load_roundtrip():
    tr = GoalSuccessTracker(n_goals=3, window=10)
    gen = rng.stream(2, rng.META)
    for _ in range(40):
        tr.record(int(gen.integers(3)), bool(gen.random() < 0.6))
    copy = GoalSuccessTracker(n_goals=3, window=10)
    copy.load(tr.dump())
    assert copy.dump() == tr.dump()
    for g in range(3):
        assert copy.success_rate(g) == tr.success_rate(g)
    with pytest.raises(ValueError):
        copy.load([[True]])
    for bad in ([[True] * 11, [], []], [[2], [], []]):
        with pytest.raises(ValueError, match="at most 10 outcomes, each 0 or 1"):
            copy.load(bad)


def test_tracker_validation():
    with pytest.raises(ValueError):
        GoalSuccessTracker(0)
    with pytest.raises(ValueError):
        GoalSuccessTracker(1, window=0)
