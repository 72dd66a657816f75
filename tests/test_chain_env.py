import numpy as np
import pytest

from hdqn import rng
from hdqn.envs.chain import LEFT, RIGHT, ChainEnv


class FixedRng:
    """Stand-in generator returning a queued sequence of uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def rollout(env, policy, gen):
    """Run one episode; returns (state ids visited, total reward)."""
    states = [env.reset()]
    total = 0.0
    done = False
    while not done:
        s, r, done = env.step(policy(states[-1]), gen)
        states.append(s)
        total += r
    return states, total


def test_reset_returns_start_state():
    env = ChainEnv()
    assert env.reset() == ChainEnv.start_position - 1 == 1


def test_left_always_descends():
    env = ChainEnv()
    gen = rng.stream(7, rng.ENV)
    env.reset()
    s, _, done = env.step(LEFT, gen)
    assert s == 0
    assert done


def test_right_success_ascends_and_failure_descends():
    env = ChainEnv()
    env.reset()
    s, _, _ = env.step(RIGHT, FixedRng([0.49]))
    assert s == 2  # position 3
    s, _, _ = env.step(RIGHT, FixedRng([0.51]))
    assert s == 1  # back to position 2


def test_right_at_top_self_loops_on_success():
    env = ChainEnv()
    env.reset()
    for _ in range(4):  # climb 2 -> 6
        s, _, _ = env.step(RIGHT, FixedRng([0.0]))
    assert s == 5  # position 6
    s, _, _ = env.step(RIGHT, FixedRng([0.0]))
    assert s == 5
    s, _, done = env.step(RIGHT, FixedRng([0.9]))
    assert s == 4  # slipped to position 5
    assert not done


def test_big_reward_iff_top_visited():
    env = ChainEnv()
    # Straight down without visiting the top.
    env.reset()
    _, r, done = env.step(LEFT, FixedRng([]))
    assert r == pytest.approx(0.01)
    assert done
    # Up to the top, then all the way down: exactly one reward of 1.0.
    env.reset()
    total = 0.0
    for _ in range(4):
        total += env.step(RIGHT, FixedRng([0.0]))[1]
    for _ in range(5):
        _, r, done = env.step(LEFT, FixedRng([]))
        total += r
    assert done
    assert total == pytest.approx(1.0)


def test_reward_support_and_history_rule():
    """Every episode pays exactly 0.01 or 1.0, the latter iff the top was seen."""
    env = ChainEnv()
    gen = rng.stream(42, rng.ENV)
    act = rng.stream(42, rng.CONTROLLER)
    for _ in range(300):
        policy = lambda s: int(act.integers(2))
        states, total = rollout(env, policy, gen)
        assert states[-1] == 0  # position 1
        if 5 in states:  # position 6
            assert total == pytest.approx(1.0)
        else:
            assert total == pytest.approx(0.01)


def test_right_success_frequency_is_half():
    env = ChainEnv()
    gen = rng.stream(3, rng.ENV)
    ups = 0
    n = 10000
    for _ in range(n):
        env.reset()
        if env.step(RIGHT, gen)[0] == 2:
            ups += 1
    assert 0.47 < ups / n < 0.53


def test_step_after_terminal_raises():
    env = ChainEnv()
    gen = rng.stream(0, rng.ENV)
    env.reset()
    env.step(LEFT, gen)
    with pytest.raises(RuntimeError):
        env.step(LEFT, gen)


def test_step_before_reset_raises():
    env = ChainEnv()
    with pytest.raises(RuntimeError):
        env.step(LEFT, rng.stream(0, rng.ENV))


def test_bad_action_raises():
    env = ChainEnv()
    gen = rng.stream(0, rng.ENV)
    env.reset()
    with pytest.raises(ValueError):
        env.step(2, gen)


def test_state_position_mapping_roundtrip():
    """The observed state id is the hidden position shifted by one at
    every step of a random walk: it starts at 1 (position 2), moves one
    down or one up, capped at 5 (position 6), and the episode ends on
    entering 0 (position 1)."""
    env = ChainEnv()
    gen = rng.stream(4, rng.ENV)
    s = env.reset()
    assert s == 1
    done = False
    while not done:
        s_next, _, done = env.step(RIGHT, gen)
        assert s_next in (s - 1, min(s + 1, 5))
        assert done == (s_next == 0)
        s = s_next
