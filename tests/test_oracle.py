import numpy as np
import pytest

from hdqn.envs.chain import ChainEnv
from hdqn.oracle import (
    MdpModel,
    augmented_index,
    chain_model,
    value_iteration,
)

# Exact optimal values of the fully observed chain, flag = "top visited".
# Cross-checked below against the ruin closed form; frozen here so any
# drift in the model or the solver is caught.
V_NOT_VISITED = [0.0, 0.208, 0.406, 0.604, 0.802, 0.901]
V_VISITED = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_model_is_stochastic_and_terminal_consistent():
    P, R, terminal = chain_model()
    assert P.shape == (12, 2, 12)
    assert np.allclose(P.sum(axis=2), 1.0)
    assert terminal.sum() == 2
    assert terminal[augmented_index(1, False)] and terminal[augmented_index(1, True)]
    # Entering the top always lands in a flag-set state.
    top_unset = augmented_index(6, False)
    assert P[:, :, top_unset].sum() == 0.0


def test_rewards_only_on_entering_terminal():
    P, R, _ = chain_model()
    nonzero = np.argwhere(R != 0.0)
    for i, a, j in nonzero:
        assert j in (augmented_index(1, False), augmented_index(1, True))
    assert R[augmented_index(2, False), 0, augmented_index(1, False)] == 0.01
    assert R[augmented_index(2, True), 0, augmented_index(1, True)] == 1.0


def test_solution_matches_frozen_values():
    res = value_iteration(chain_model())
    assert res.residual < 1e-10
    np.testing.assert_allclose(res.v[:6], V_NOT_VISITED, atol=1e-9)
    np.testing.assert_allclose(res.v[6:], V_VISITED, atol=1e-9)


def test_start_state_value_matches_ruin_closed_form():
    # Independent derivation: under always-right, reaching the top before
    # the bottom from position 2 is a fair-walk ruin event with
    # probability (2-1)/(6-1); the payoff is 1 on that event, else 0.01.
    p_top = (2 - 1) / (6 - 1)
    closed_form = p_top * 1.0 + (1 - p_top) * 0.01
    res = value_iteration(chain_model())
    start = res.v[augmented_index(ChainEnv.start_position, False)]
    assert start == pytest.approx(closed_form, abs=1e-9)
    assert start == pytest.approx(0.208, abs=1e-3)


def test_optimal_policy_shape():
    res = value_iteration(chain_model())
    # Before the top is visited: head right everywhere.
    for pos in range(2, 7):
        assert res.policy[augmented_index(pos, False)] == 1
    # Afterwards both actions are worth 1.0; ties break to left.
    for pos in range(2, 7):
        i = augmented_index(pos, True)
        assert res.q[i, 0] == pytest.approx(1.0, abs=1e-9)
        assert res.q[i, 1] == pytest.approx(1.0, abs=1e-9)
        assert res.policy[i] == 0


def test_terminal_states_have_zero_value():
    res = value_iteration(chain_model())
    assert res.v[augmented_index(1, False)] == 0.0
    assert res.v[augmented_index(1, True)] == 0.0


def test_value_iteration_on_corridor():
    """3-state deterministic corridor, step right to a terminal reward."""
    P = np.zeros((3, 2, 3))
    R = np.zeros((3, 2, 3))
    terminal = np.array([False, False, True])
    P[0, 0, 0] = 1.0  # left bumps the wall
    P[0, 1, 1] = 1.0
    P[1, 0, 0] = 1.0
    P[1, 1, 2] = 1.0
    R[1, 1, 2] = 1.0
    P[2, :, 2] = 1.0
    res = value_iteration(MdpModel(P, R, terminal), gamma=0.9)
    np.testing.assert_allclose(res.v, [0.9, 1.0, 0.0], atol=1e-9)
    assert list(res.policy[:2]) == [1, 1]


def test_value_iteration_max_iterations_guard():
    # A rewardless self-loop converges immediately; a max_iterations of 0
    # style misuse should raise rather than return silently.
    P = np.zeros((1, 1, 1))
    P[0, 0, 0] = 1.0
    R = np.ones((1, 1, 1))
    terminal = np.array([False])
    with pytest.raises(RuntimeError):
        value_iteration(MdpModel(P, R, terminal), gamma=1.0, max_iterations=5)
