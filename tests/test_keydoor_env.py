import numpy as np
import pytest

from hdqn import rng
from hdqn.envs.keydoor import (
    DEFAULT_LAYOUT,
    DIR_RIGHT,
    DOWN,
    LEFT,
    RIGHT,
    UP,
    KeyDoorEnv,
    parse_layout,
)
from hdqn.errors import ConfigError

# Scripted optimal run on the default layout: fetch the key down the left
# wall, return, cross to the door. 25 steps, reward 400.
GOLDEN_ACTIONS = [LEFT] * 4 + [DOWN] * 6 + [UP] * 6 + [RIGHT] * 9
GOLDEN_REWARD = 400.0


def fresh(layout=None, step_limit=500):
    env = KeyDoorEnv(layout=layout, step_limit=step_limit)
    state = env.reset(rng.stream(0, rng.ENV))
    return env, state


def configurations(env) -> dict:
    """state id -> (agent cell, skull offset, skull heading, key flag)
    for every configuration, built from encode alone."""
    lay = env.layout
    return {
        env.encode((x, y), off, d, k): ((x, y), off, d, k)
        for y in range(lay.height)
        for x in range(lay.width)
        for off in range(env.patrol_len)
        for d in (0, 1)
        for k in (False, True)
    }


def play(env, actions):
    gen = rng.stream(0, rng.ENV)
    total = 0.0
    out = None
    for a in actions:
        out = env.step(a, gen)
        total += out.extrinsic_reward
        if out.terminal:
            break
    return out, total


def test_default_layout_parses():
    lay = parse_layout(DEFAULT_LAYOUT)
    assert (lay.width, lay.height) == (12, 9)
    assert lay.spawn == (5, 1)
    assert lay.key == (1, 7)
    assert lay.door == (10, 1)
    assert lay.ladder_bl == (1, 6)
    assert lay.ladder_br == (10, 6)
    assert lay.patrol == tuple((x, 7) for x in range(3, 9))


def test_layout_accepts_slash_separated_rows():
    lay = parse_layout(DEFAULT_LAYOUT.replace("\n", "/"))
    assert lay == parse_layout(DEFAULT_LAYOUT)
    assert KeyDoorEnv(DEFAULT_LAYOUT.replace("\n", "/")).layout_text == DEFAULT_LAYOUT


@pytest.mark.parametrize(
    "bad",
    [
        "####/#AK#/####",  # no door, no ladders, no patrol
        "######/#AKDS#/#LL..#/#....#/######".replace("/", "\n") + "\nX",
        "#####/#ADS#/#LLK/#####",  # ragged rows
        "######/#AADS#/#LLK.#/######",  # duplicate agent
    ],
)
def test_bad_layouts_rejected(bad):
    with pytest.raises(ConfigError):
        parse_layout(bad)


def test_state_count_matches_factored_form():
    env, _ = fresh()
    assert env.n_states == 12 * 9 * 6 * 2 * 2
    assert env.n_actions == 4


def test_encode_decode_roundtrip():
    """encode is one-to-one onto range(n_states), so the table inverting
    it decodes every id, and agent_cell_index reads the agent's cell."""
    env, _ = fresh()
    lay = env.layout
    by_state = configurations(env)
    assert sorted(by_state) == list(range(env.n_states))
    for s, (agent, _, _, _) in by_state.items():
        assert env.agent_cell_index(s) == agent[1] * lay.width + agent[0]


def test_golden_run_scores_400():
    env, _ = fresh()
    out, total = play(env, GOLDEN_ACTIONS)
    assert out.terminal
    assert total == pytest.approx(GOLDEN_REWARD)
    assert len(GOLDEN_ACTIONS) == 25
    assert env.step_limit > len(GOLDEN_ACTIONS)


def test_key_alone_scores_100_and_key_disappears():
    env, _ = fresh()
    out, total = play(env, [LEFT] * 4 + [DOWN] * 6)
    assert not out.terminal
    assert total == pytest.approx(100.0)
    agent, _, _, has_key = configurations(env)[out.next_state]
    assert has_key
    assert agent == (1, 7)
    # Standing on the key cell again pays nothing new.
    out2, extra = play(env, [UP, DOWN])
    assert extra == pytest.approx(0.0)


def test_door_without_key_is_inert():
    env, _ = fresh()
    out, total = play(env, [RIGHT] * 5 + [LEFT])
    assert total == pytest.approx(0.0)
    assert not out.terminal


def test_walls_block_movement():
    env, start = fresh()
    gen = rng.stream(0, rng.ENV)
    out = env.step(UP, gen)  # spawn is against the top wall
    assert out.next_state == env.encode(env.layout.spawn, 1, DIR_RIGHT, False)


def test_skull_collision_is_terminal_zero():
    env, _ = fresh()
    # Down the column x=4, then wait; the skull sweeps back into the agent.
    out, total = play(env, [LEFT] + [DOWN] * 8)
    assert out.terminal
    assert total == pytest.approx(0.0)
    assert configurations(env)[out.next_state][0] == (4, 7)


def test_skull_periodicity():
    """Skull cell is a function of steps mod 2*(patrol length - 1)."""
    env, state = fresh()
    gen = rng.stream(0, rng.ENV)
    period = 2 * (env.patrol_len - 1)
    by_state = configurations(env)
    cells = []
    for _ in range(3 * period):
        state, _, done = env.step(UP, gen)  # agent pinned at the top wall
        assert not done
        _, off, _, _ = by_state[state]
        cells.append(off)
    for t, off in enumerate(cells):
        assert off == cells[t % period]
    assert sorted(set(cells)) == list(range(env.patrol_len))


def test_step_limit_truncates():
    env, _ = fresh(step_limit=7)
    out, before = play(env, [UP] * 6)
    assert not out.terminal
    out, last = play(env, [UP])  # the 7th step hits the limit
    assert out.terminal
    assert before + last == pytest.approx(0.0)


def test_swap_through_skull_is_survivable():
    # Tiny map where the agent can cross through the skull's cell while
    # the skull moves the other way; death applies to shared end cells only.
    lay = "#######/#.A.LL#/#.SS..#/#K...D#/#######"
    env, _ = fresh(layout=lay)
    gen = rng.stream(0, rng.ENV)
    by_state = configurations(env)
    out = env.step(DOWN, gen)  # lands on the skull's vacated cell
    assert not out.terminal
    assert by_state[out.next_state][0] == (2, 2)
    out = env.step(RIGHT, gen)  # true swap: agent and skull trade cells
    assert not out.terminal
    agent, off, _, _ = by_state[out.next_state]
    assert agent == (3, 2)
    assert env.layout.patrol[off] == (2, 2)


def test_reward_budget_under_random_play():
    """Episode totals only ever land on 0, 100, or 400."""
    env = KeyDoorEnv()
    gen = rng.stream(9, rng.ENV)
    act = rng.stream(9, rng.CONTROLLER)
    for _ in range(40):
        env.reset(gen)
        total = 0.0
        done = False
        while not done:
            _, r, done = env.step(int(act.integers(4)), gen)
            total += r
        assert total in (0.0, 100.0, 400.0)


def test_entities_fresh_and_pure():
    """A reset puts every entity at its start, the same on every reset:
    the agent on its spawn, the skull on the leftmost patrol cell heading
    right, the key not held; the other entities are fixed layout cells."""
    env, state = fresh()
    lay = env.layout
    assert state == env.encode(lay.spawn, 0, DIR_RIGHT, False)
    assert env.reset(rng.stream(1, rng.ENV)) == state
    assert len({lay.spawn, lay.key, lay.door, lay.ladder_bl, lay.ladder_br}) == 5


def test_step_before_reset_and_after_terminal_raise():
    env = KeyDoorEnv(step_limit=1)
    gen = rng.stream(0, rng.ENV)
    with pytest.raises(RuntimeError):
        env.step(UP, gen)
    env.reset(gen)
    env.step(UP, gen)
    with pytest.raises(RuntimeError):
        env.step(UP, gen)
