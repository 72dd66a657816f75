"""Gridworld fetch-the-key-then-open-the-door task with a patrolling hazard.

A single room. The agent spawns at the top, the key sits in the bottom-left
corner behind a skull that patrols a segment of the bottom row, and the
door is at the top-right. Entering the key's cell pays +100 and picks the
key up; entering the door's cell while holding the key pays +300 and ends
the episode. Sharing a cell with the skull ends the episode with no
reward, as does exceeding the step limit. All dynamics are deterministic:
the only stochasticity in training comes from exploration.

The observed state id factors the agent cell, the skull's offset along
its patrol segment, the skull's heading, and the key flag. The step
counter is not observed. KeyDoorEnv keeps the agent's position as a
flat cell index and steps it through a (cell, action) -> cell move
table built from the layout when the env is made.

Layout grammar (config key ``layout``, rows joined by ``/``):

    ``#`` wall, ``.`` floor, ``A`` agent spawn, ``K`` key, ``D`` door,
    ``L`` ladder landmark (exactly two; the leftmost is ladder_bl, the
    other ladder_br), ``S`` skull patrol cell (one contiguous horizontal
    run; the skull starts on its leftmost cell heading right).

Rows must be equal length and each of A/K/D must appear exactly once.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from hdqn.envs.base import Environment, StepOutcome
from hdqn.errors import ConfigError

UP = 0
DOWN = 1
LEFT = 2
RIGHT = 3

# (dx, dy) per action id; y grows downward.
_MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))

DIR_RIGHT = 0
DIR_LEFT = 1

# Most states a layout may define, width * height * patrol length * 4. A
# tabular q1 takes 128 bytes per state (4 goals x 4 actions x 8 bytes),
# 128 MB at this bound. The shipped room has 2,592 states.
MAX_STATES = 10**6

DEFAULT_LAYOUT = "\n".join(
    [
        "############",
        "#....A....D#",
        "#..........#",
        "#..........#",
        "#..........#",
        "#..........#",
        "#L........L#",
        "#K.SSSSSS..#",
        "############",
    ]
)


class Layout(NamedTuple):
    width: int
    height: int
    walls: frozenset
    spawn: tuple[int, int]
    key: tuple[int, int]
    door: tuple[int, int]
    ladder_bl: tuple[int, int]
    ladder_br: tuple[int, int]
    patrol: tuple  # patrol cells, left to right, all on one row


def _rows(text: str) -> list[str]:
    return [r for r in text.replace("/", "\n").splitlines() if r.strip()]


def parse_layout(text: str) -> Layout:
    """Parse an ASCII map into a validated Layout.

    Accepts rows separated by newlines or by '/' (the single-line config
    form). Raises ConfigError on any violation of the grammar.
    """
    rows = _rows(text)
    if not rows:
        raise ConfigError("layout: empty map")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("layout: rows must all have the same length")
    height = len(rows)

    walls = set()
    marks: dict[str, list[tuple[int, int]]] = {c: [] for c in "AKDLS"}
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == "#":
                walls.add((x, y))
            elif ch == ".":
                pass
            elif ch in marks:
                marks[ch].append((x, y))
            else:
                raise ConfigError(f"layout: unknown character {ch!r} at ({x},{y})")

    for ch, want in (("A", 1), ("K", 1), ("D", 1)):
        if len(marks[ch]) != want:
            raise ConfigError(
                f"layout: expected exactly {want} {ch!r}, found {len(marks[ch])}"
            )
    if len(marks["L"]) != 2:
        raise ConfigError(f"layout: expected exactly 2 'L', found {len(marks['L'])}")
    if not marks["S"]:
        raise ConfigError("layout: no skull patrol cells 'S'")

    patrol = sorted(marks["S"])
    ys = {c[1] for c in patrol}
    if len(ys) != 1:
        raise ConfigError("layout: patrol cells must lie on a single row")
    xs = [c[0] for c in patrol]
    if xs != list(range(xs[0], xs[0] + len(xs))):
        raise ConfigError("layout: patrol cells must be contiguous")
    n_states = width * height * len(patrol) * 4
    if n_states > MAX_STATES:
        raise ConfigError(f"layout: {n_states} states, more than MAX_STATES = {MAX_STATES}")

    # Leftmost ladder is ladder_bl; ties on x broken toward the lower row.
    ladders = sorted(marks["L"], key=lambda c: (c[0], -c[1]))
    return Layout(
        width=width,
        height=height,
        walls=frozenset(walls),
        spawn=marks["A"][0],
        key=marks["K"][0],
        door=marks["D"][0],
        ladder_bl=ladders[0],
        ladder_br=ladders[1],
        patrol=tuple(patrol),
    )


class KeyDoorEnv(Environment):
    """The key-door room, stepped through tables built from its layout.

    The agent's position is a flat cell index, y * width + x. It moves
    through a move table: _moves[cell * 4 + action] is the cell the
    action leads to, the same cell where a wall or the map's edge blocks
    it. The skull's patrol offset and heading form one phase,
    offset * 2 + heading, which advances through its own table, and the
    skull's, key's and door's cells are cell indices too. A step is then
    a few list reads and integer compares, and the state id
    ((cell * P + offset) * 2 + heading) * 2 + key, with P the patrol
    length, is (cell * 2P + phase) * 2 + key.
    """

    name = "keydoor"
    # The four non-hazard entities. A goal is judged on the agent's cell
    # alone: reaching the door counts whether or not the key is held.
    goal_names = ("key", "door", "ladder_bl", "ladder_br")
    n_actions = len(_MOVES)
    key_reward = 100.0
    door_reward = 300.0

    def __init__(self, layout: str | None = None, step_limit: int = 500):
        if layout is None:
            layout = DEFAULT_LAYOUT
        if step_limit <= 0:
            raise ConfigError(f"step_limit must be positive, got {step_limit}")
        self.layout = lay = parse_layout(layout)
        # parse_layout accepts only map-cell characters, so its rows,
        # newline-joined, are the map in canonical form.
        self.layout_text = "\n".join(_rows(layout))
        self.step_limit = step_limit
        self.patrol_len = p = len(lay.patrol)
        self._n_phases = 2 * p
        self.n_states = lay.width * lay.height * p * 2 * 2

        width, height = lay.width, lay.height
        self._moves = []
        for y in range(height):
            for x in range(width):
                for dx, dy in _MOVES:
                    nx, ny = x + dx, y + dy
                    open_cell = 0 <= nx < width and 0 <= ny < height and (nx, ny) not in lay.walls
                    self._moves.append(ny * width + nx if open_cell else y * width + x)
        # The skull steps one cell along its patrol per step and turns on
        # reaching either end; on a patrol of one cell it stands still.
        # The two phases no episode reaches, heading off either end, are
        # left standing still too.
        self._phase_next = list(range(self._n_phases))
        if p > 1:
            for off in range(p):
                for heading in (DIR_RIGHT, DIR_LEFT):
                    nxt = off + (1 if heading == DIR_RIGHT else -1)
                    if 0 <= nxt < p:
                        turned = DIR_LEFT if nxt == p - 1 else DIR_RIGHT if nxt == 0 else heading
                        self._phase_next[off * 2 + heading] = nxt * 2 + turned
        self._skull_at = [self._cell_index(lay.patrol[phase // 2]) for phase in range(self._n_phases)]
        self._spawn = self._cell_index(lay.spawn)
        self._key = self._cell_index(lay.key)
        self._door = self._cell_index(lay.door)
        # In goal_names order.
        goals = (lay.key, lay.door, lay.ladder_bl, lay.ladder_br)
        self.goal_cells = tuple(self._cell_index(c) for c in goals)

        self._cell = self._spawn
        self._phase = 0  # offset 0, heading DIR_RIGHT
        self._has_key = 0
        self._steps = 0
        self._done = True

    # -- state encoding ------------------------------------------------

    def _cell_index(self, cell: tuple[int, int]) -> int:
        return cell[1] * self.layout.width + cell[0]

    def encode(
        self,
        agent: tuple[int, int],
        skull_off: int,
        skull_dir: int,
        has_key: bool,
    ) -> int:
        idx = self._cell_index(agent)
        return ((idx * self.patrol_len + skull_off) * 2 + skull_dir) * 2 + int(has_key)

    def agent_cell_index(self, state: int) -> int:
        """Agent's flat cell index; cheap enough for per-step goal checks."""
        return state // (self.patrol_len * 4)

    # -- dynamics ------------------------------------------------------

    def reset(self, rng: np.random.Generator) -> int:
        self._cell = self._spawn
        self._phase = 0
        self._has_key = 0
        self._steps = 0
        self._done = False
        return self._spawn * self._n_phases * 2

    def step(self, action: int, rng: np.random.Generator) -> StepOutcome:
        # Without the range check, action 4 or -1 would read another
        # cell's entry.
        if self._done:
            raise RuntimeError("step() on a finished or unreset episode; call reset() first")
        if not 0 <= action < 4:
            raise ValueError(f"action {action} out of range for 4 actions")
        # Skull moves after the agent; death is checked on the resulting
        # configuration only, so swapping cells mid-step is survivable.
        cell = self._moves[self._cell * 4 + action]
        phase = self._phase_next[self._phase]
        self._cell = cell
        self._phase = phase
        self._steps += 1
        has_key = self._has_key
        reward = 0.0
        terminal = False
        if cell == self._skull_at[phase]:
            terminal = True
        elif cell == self._key:
            if not has_key:
                self._has_key = has_key = 1
                reward = self.key_reward
        elif cell == self._door and has_key:
            reward = self.door_reward
            terminal = True
        if terminal or self._steps >= self.step_limit:
            self._done = terminal = True
        return StepOutcome((cell * self._n_phases + phase) * 2 + has_key, reward, terminal)
