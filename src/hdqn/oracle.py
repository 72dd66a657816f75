"""Exact solvers used only for verification.

The chain task hides its visited-top flag from agents, so learned values
cannot be checked against the observed model directly. This module
builds the fully observed 12-state model (position crossed with the
flag), where transitions are Markov, and solves it exactly by value
iteration. Tests compare learned behaviour and values against these
solutions; nothing here feeds back into training.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from hdqn.envs.chain import ChainEnv

N_AUGMENTED = 2 * ChainEnv.n_positions


def augmented_index(position: int, visited_top: bool) -> int:
    """Index of (position, flag) in the 12-state model."""
    return int(visited_top) * ChainEnv.n_positions + (position - 1)


class MdpModel(NamedTuple):
    """Tabular MDP: transition tensor, per-transition rewards, terminal mask.

    transitions has shape (S, A, S) and rows summing to 1; rewards has
    the same shape and is paid on the transition; terminal marks
    absorbing states whose value is fixed at 0.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    terminal: np.ndarray


def chain_model(env: ChainEnv | None = None) -> MdpModel:
    """The chain task with the visited-top flag folded into the state."""
    if env is None:
        env = ChainEnv()
    n = N_AUGMENTED
    P = np.zeros((n, 2, n))
    R = np.zeros((n, 2, n))
    terminal = np.zeros(n, dtype=bool)

    for visited in (False, True):
        terminal[augmented_index(env.terminal_position, visited)] = True

    def arrive(pos_from: int, visited: bool, pos_to: int):
        now_visited = visited or pos_to == env.top_position
        j = augmented_index(pos_to, now_visited)
        r = 0.0
        if pos_to == env.terminal_position:
            r = env.big_reward if now_visited else env.small_reward
        return j, r

    for visited in (False, True):
        for pos in range(2, env.n_positions + 1):
            i = augmented_index(pos, visited)
            j, r = arrive(pos, visited, pos - 1)
            # left: always down one.
            P[i, 0, j] += 1.0
            R[i, 0, j] = r
            # right: up on success (self-loop at the top), down otherwise.
            up = min(pos + 1, env.top_position)
            j, r = arrive(pos, visited, up)
            P[i, 1, j] += env.right_success
            R[i, 1, j] = r
            j, r = arrive(pos, visited, pos - 1)
            P[i, 1, j] += 1.0 - env.right_success
            R[i, 1, j] = r

    # Terminal states absorb with zero reward; rows must still be stochastic.
    for s in np.flatnonzero(terminal):
        P[s, :, s] = 1.0
    return MdpModel(P, R, terminal)


class ViResult(NamedTuple):
    v: np.ndarray
    q: np.ndarray
    policy: np.ndarray
    iterations: int
    residual: float


def value_iteration(
    model: MdpModel,
    gamma: float = 1.0,
    tol: float = 1e-10,
    max_iterations: int = 1_000_000,
) -> ViResult:
    """Solve a tabular MDP to a sup-norm residual below tol.

    gamma=1 is valid for episodic models where every policy eventually
    absorbs; the chain model satisfies this because `right` fails
    downward half the time. Ties in the greedy policy go to the lowest
    action index.
    """
    P, R, terminal = model
    expected_r = (P * R).sum(axis=2)
    v = np.zeros(P.shape[0])
    for it in range(1, max_iterations + 1):
        q = expected_r + gamma * (P @ v)
        q[terminal] = 0.0
        v_new = q.max(axis=1)
        residual = float(np.abs(v_new - v).max())
        v = v_new
        if residual < tol:
            return ViResult(v, q, q.argmax(axis=1), it, residual)
    raise RuntimeError(
        f"value iteration did not reach residual {tol} in {max_iterations} iterations"
    )
