"""Agent checkpoints: the value functions plus exploration state.

One binary container, little-endian, version 2. Layout:

    magic "HACK"[4] version u32 agent_kind u8 (its index in agents.KINDS)
    env:      the env's name text, layout_text text and step_limit u32
              (chain: empty and 0), which envs.make_env rebuilds it from
    flat:     primitive_steps u64, gamma f8, schedule, value section
    hdqn:     primitive_steps, joint_steps, completed_options twice
              (u64 each), gamma f8, low-level then meta schedule,
              tracker, low-level then meta value section

    text:     u32 byte length, then UTF-8 bytes
    schedule: start f8 (always 1.0), floor f8, horizon u64
    tracker:  window u32, floor f8 (eps1's), then per goal a u32 count
              (at most window) and that many outcome bytes (0 or 1)
    value section: backend u8 (its index in values.BACKENDS), n_states
              u32, n_goals u32 (0 = no goal axis), n_choices u32,
              learning_rate f8; mlp adds hidden u32 and train_steps u64;
              then f8 arrays: the table, one row per (state[, goal])
              in C order, or w1, b1, w2, b2 followed by their four
              snapshot arrays

The environment fixes every dimension, so the reader checks each
section's dimensions against the env's, and a network body's length,
before values.make_estimator builds the estimator, then fills the
estimator's arrays() in place. A loaded network syncs its target every
1000 train steps. A slot that repeats a fact is checked against it, so
dump_agent(load_agent(b)) == b for every b that loads. Trailing bytes
are rejected, and every malformed field raises ConfigError. Checkpoints
hold everything a frozen-policy evaluation needs; replay contents are
deliberately not persisted.
"""
from __future__ import annotations

import struct

import numpy as np

from hdqn.agents import KINDS, EpsilonSchedule, FlatQAgent, HierarchicalAgent
from hdqn.envs import make_env
from hdqn.errors import ConfigError
from hdqn.values import BACKENDS, make_estimator

_MAGIC = b"HACK"
_VERSION = 2
# Width in bits of the field each of these config settings is written to
# (step_limit and the tracker's window u32, a schedule's horizon u64).
FIELD_BITS = dict(step_limit=32, tracker_window=32, eps1_horizon=64, eps2_horizon=64)


class _Writer:
    def __init__(self):
        self.parts = []

    def pack(self, fmt: str, *values):
        self.parts.append(struct.pack("<" + fmt, *values))

    def text(self, s: str):
        data = s.encode("utf-8")
        self.pack("I", len(data))
        self.parts.append(data)

    def schedule(self, sched: EpsilonSchedule):
        self.pack("ddQ", 1.0, sched.floor, sched.horizon)

    def values(self, vf):
        backend = BACKENDS.index(vf.kind)
        self.pack("BIIId", backend, vf.n_states, vf.n_goals or 0, vf.n_choices, vf.learning_rate)
        if vf.kind == "mlp":
            self.pack("IQ", vf.hidden, vf.train_steps)
        self.parts.extend(np.asarray(a, dtype="<f8").tobytes() for a in vf.arrays())

    def table(self, learning_rate: float, table):
        """The flat agent's tabular section: one row per state."""
        table = np.asarray(table, dtype="<f8")
        self.pack("BIIId", 0, table.shape[0], 0, table.shape[1], learning_rate)
        self.parts.append(table.tobytes())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def raw(self, size: int) -> bytes:
        if size > len(self.data) - self.pos:
            raise ConfigError("checkpoint truncated")
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def pack(self, fmt: str):
        fmt = "<" + fmt
        values = struct.unpack(fmt, self.raw(struct.calcsize(fmt)))
        return values if len(values) > 1 else values[0]

    def text(self) -> str:
        return self.raw(self.pack("I")).decode("utf-8")

    def schedule(self) -> EpsilonSchedule:
        start, floor, horizon = self.pack("ddQ")
        if start != 1.0:
            raise ConfigError(f"an exploration schedule starts at 1.0, not {start!r}")
        return EpsilonSchedule(floor, horizon)

    def array(self, shape) -> np.ndarray:
        return np.frombuffer(self.raw(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)

    def values(self, n_states: int, n_goals: int | None, n_choices: int):
        """One value section, which must have exactly these dimensions."""
        backend, *dims, lr = self.pack("BIIId")
        if backend >= len(BACKENDS):
            raise ConfigError(f"unknown value-function backend {backend}")
        want = (n_states, n_goals or 0, n_choices)
        if tuple(dims) != want:
            raise ConfigError(
                f"value-function dimensions {tuple(dims)} do not match the "
                f"environment's (states, goals, choices) {want}"
            )
        if BACKENDS[backend] == "tabular":
            vf = make_estimator("tabular", n_states, n_choices, n_goals, lr)
        else:
            hidden, train_steps = self.pack("IQ")
            # A crafted hidden could ask for any size: check the body first.
            n_params = (n_states + (n_goals or 0) + 1) * hidden + (hidden + 1) * n_choices
            if 2 * 8 * n_params > len(self.data) - self.pos:
                raise ConfigError("checkpoint truncated")
            vf = make_estimator("mlp", n_states, n_choices, n_goals, lr, hidden)
            vf.train_steps = train_steps
        for a in vf.arrays():
            a[...] = self.array(a.shape)
        return vf


def dump_agent(agent, env) -> bytes:
    if env is not agent.env:
        raise ValueError("env must be the environment the agent was built for")
    w = _Writer()
    w.parts.append(_MAGIC)
    w.pack("IB", _VERSION, KINDS.index(agent.kind))
    w.text(env.name)
    w.text(env.layout_text)
    w.pack("I", env.step_limit)

    if agent.kind == "flat":
        w.pack("Qd", agent.primitive_steps, agent.gamma)
        w.schedule(agent.eps)
        w.table(agent.learning_rate, agent.table)
        return b"".join(w.parts)

    options = agent.completed_options  # both counter slots
    w.pack("QQQQd", agent.primitive_steps, agent.joint_steps, options, options, agent.gamma)
    w.schedule(agent.eps1)
    w.schedule(agent.eps2)
    tracker = agent.tracker
    w.pack("Id", tracker.window, tracker.floor)
    for outcomes in tracker.dump():
        w.pack("I", len(outcomes))
        w.parts.append(bytes(int(o) for o in outcomes))
    w.values(agent.q1)
    w.values(agent.q2)
    return b"".join(w.parts)


def load_agent(data: bytes):
    """Rebuild (agent, env, agent_kind) from checkpoint bytes."""
    try:
        return _load(_Reader(data))
    except ValueError as exc:  # a decoder or a constructor rejected a field
        raise ConfigError(f"bad checkpoint: {exc}") from None


def _load(r: _Reader):
    if r.raw(4) != _MAGIC:
        raise ConfigError("not a checkpoint file (bad magic)")
    version, kind_id = r.pack("IB")
    if version != _VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    if kind_id >= len(KINDS):
        raise ConfigError(f"unknown agent kind {kind_id}")
    kind = KINDS[kind_id]

    env = make_env(r.text(), r.text(), r.pack("I"))

    if kind == "flat":
        if env.name != "chain":
            raise ConfigError("flat-agent checkpoint must target the chain environment")
        primitive_steps, gamma = r.pack("Qd")
        eps = r.schedule()
        q = r.values(env.n_states, None, env.n_actions)
        _check_end(r)
        if q.kind != "tabular":
            raise ConfigError("flat-agent checkpoint must hold a tabular value section")
        agent = FlatQAgent(env, learning_rate=q.learning_rate, gamma=gamma, eps=eps)
        agent.table = q.table.tolist()
        agent.primitive_steps = primitive_steps
        return agent, env, kind

    n_goals = len(env.goal_names)
    primitive_steps, joint_steps, options, completed_options, gamma = r.pack("QQQQd")
    if options != completed_options:
        raise ConfigError(f"option counters disagree: {options} and {completed_options}")
    eps1 = r.schedule()
    eps2 = r.schedule()
    window, floor = r.pack("Id")
    # Compared as bits: a -0.0 here would pass == 0.0 but be written back as eps1's.
    if struct.pack("<d", floor) != struct.pack("<d", eps1.floor):
        raise ConfigError(f"tracker floor {floor!r} is not the low-level floor {eps1.floor!r}")
    windows = [r.raw(r.pack("I")) for _ in range(n_goals)]
    q1 = r.values(env.n_states, n_goals, env.n_actions)
    q2 = r.values(env.n_states, None, n_goals)
    _check_end(r)
    agent = HierarchicalAgent(
        env,
        q1,
        q2,
        gamma=gamma,
        eps1=eps1,
        eps2=eps2,
        tracker_window=window,
    )
    agent.tracker.load(windows)
    agent.primitive_steps = primitive_steps
    agent.joint_steps = joint_steps
    agent.completed_options = completed_options
    return agent, env, kind


def _check_end(r: _Reader) -> None:
    if r.pos != len(r.data):
        raise ConfigError(f"{len(r.data) - r.pos} trailing bytes after the checkpoint")


def read_agent(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path!r}: {exc}") from None
    return load_agent(data)
