import numpy as np
import pytest

from helpers import open_room
from hdqn import rng
from hdqn.envs.keydoor import (
    DEFAULT_LAYOUT,
    DIR_LEFT,
    DIR_RIGHT,
    DOWN,
    LEFT,
    RIGHT,
    UP,
    MAX_STATES,
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


def test_state_count_is_bounded_where_the_layout_is_parsed():
    """A room may define at most MAX_STATES states, width * height *
    patrol length * 4; the shipped room defines 2,592."""
    assert KeyDoorEnv().n_states == 2592
    assert MAX_STATES == 500 * 500 * 1 * 4
    parse_layout(open_room(500, 500, 1))
    for width, height, patrol in ((501, 500, 1), (402, 402, 398)):
        with pytest.raises(ConfigError, match="MAX_STATES"):
            parse_layout(open_room(width, height, patrol))


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


def test_bad_action_raises():
    """Out-of-range actions are refused, not read from another cell's
    entry of the move table."""
    env, _ = fresh()
    gen = rng.stream(0, rng.ENV)
    for bad in (4, -1):
        with pytest.raises(ValueError):
            env.step(bad, gen)
    assert env.step(UP, gen).next_state == env.encode(env.layout.spawn, 1, DIR_RIGHT, False)


# (dx, dy) per action id; y grows downward.
REFERENCE_MOVES = {UP: (0, -1), DOWN: (0, 1), LEFT: (-1, 0), RIGHT: (1, 0)}


def reference_step(lay, step_limit, config, steps, action):
    """One step worked out on (x, y) coordinates: the agent moves unless a
    wall or the map's edge blocks it, then the skull advances, then
    death, key, door and the step limit are checked in that order.
    Returns (configuration, reward, terminal)."""
    (x, y), off, heading, has_key = config
    dx, dy = REFERENCE_MOVES[action]
    nx, ny = x + dx, y + dy
    agent = (x, y)
    if 0 <= nx < lay.width and 0 <= ny < lay.height and (nx, ny) not in lay.walls:
        agent = (nx, ny)
    if len(lay.patrol) > 1:
        off += 1 if heading == DIR_RIGHT else -1
        if off == len(lay.patrol) - 1:
            heading = DIR_LEFT
        elif off == 0:
            heading = DIR_RIGHT
    reward = 0.0
    terminal = False
    if agent == lay.patrol[off]:
        terminal = True
    else:
        if agent == lay.key and not has_key:
            has_key = True
            reward += 100.0
        if agent == lay.door and has_key:
            reward += 300.0
            terminal = True
    if steps + 1 >= step_limit:
        terminal = True
    return (agent, off, heading, has_key), reward, terminal


def skull_phases(patrol_len):
    """(offset, heading) pairs an episode can be in: the skull starts on
    the leftmost cell heading right and turns at both ends, so it is
    never at the right end heading right or at the left end heading left
    (unless the patrol is one cell long and it never moves)."""
    if patrol_len == 1:
        return [(0, DIR_RIGHT)]
    return [
        (off, heading)
        for off in range(patrol_len)
        for heading in (DIR_RIGHT, DIR_LEFT)
        if not (off == 0 and heading == DIR_LEFT)
        and not (off == patrol_len - 1 and heading == DIR_RIGHT)
    ]


def place(env, config, steps):
    """Put a reset env into a configuration after `steps` steps."""
    agent, off, heading, has_key = config
    env.reset(rng.stream(0, rng.ENV))
    env._cell = agent[1] * env.layout.width + agent[0]
    env._phase = off * 2 + heading
    env._has_key = int(has_key)
    env._steps = steps


@pytest.mark.parametrize(
    "layout",
    [DEFAULT_LAYOUT, "######/#A..D#/#L..L#/#K.S.#/######"],
    ids=["default", "one-cell-patrol"],
)
def test_table_step_matches_the_coordinate_reference_everywhere(layout):
    """Every non-wall cell x reachable skull phase x key flag x action,
    both mid-episode and on the last step the limit allows: the
    table-driven step returns the reference's state id, reward and end,
    and a step that ends the episode leaves it finished."""
    step_limit = 50
    env = KeyDoorEnv(layout, step_limit=step_limit)
    lay = env.layout
    gen = rng.stream(0, rng.ENV)
    cells = [
        (x, y)
        for y in range(lay.height)
        for x in range(lay.width)
        if (x, y) not in lay.walls
    ]
    checked = 0
    for steps in (0, step_limit - 1):
        for agent in cells:
            for off, heading in skull_phases(env.patrol_len):
                for has_key in (False, True):
                    for action in (UP, DOWN, LEFT, RIGHT):
                        config = (agent, off, heading, has_key)
                        place(env, config, steps)
                        out = env.step(action, gen)
                        want, reward, terminal = reference_step(lay, step_limit, config, steps, action)
                        assert out == (env.encode(*want), reward, terminal), (config, steps, action)
                        if terminal:
                            with pytest.raises(RuntimeError):
                                env.step(UP, gen)
                        checked += 1
    assert checked == 2 * len(cells) * len(skull_phases(env.patrol_len)) * 2 * 4


def test_step_limit_ends_an_episode_on_the_limit_step():
    """Played from reset, the episode ends exactly on step step_limit:
    pinned against the top wall, nothing else can end it."""
    for step_limit in (1, 2, 13):
        env, _ = fresh(step_limit=step_limit)
        gen = rng.stream(0, rng.ENV)
        for t in range(1, step_limit + 1):
            assert env.step(UP, gen).terminal == (t == step_limit)
        with pytest.raises(RuntimeError):
            env.step(UP, gen)
