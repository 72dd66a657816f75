"""Agent checkpoints: the value functions plus exploration state.

One binary container, little-endian, version 2. Layout:

    magic "HACK"[4] version u32 agent_kind u8 (0 flat, 1 hdqn)
    env:      name text, key-door layout text (empty for chain),
              step limit u32 (0 for chain)
    flat:     primitive_steps u64, gamma f8, schedule, value section
    hdqn:     primitive_steps, joint_steps, meta_decisions,
              completed_options (u64 each), gamma f8, low-level then
              meta schedule, tracker, low-level then meta value section

    text:     u32 byte length, then UTF-8 bytes
    schedule: start f8, floor f8, horizon u64
    tracker:  window u32, floor f8, then per goal a u32 count and that
              many outcome bytes
    value section: backend u8 (0 tabular, 1 mlp), n_states u32,
              n_goals u32 (0 = no goal axis), n_choices u32,
              learning_rate f8; mlp adds hidden u32 and train_steps u64;
              then f8 arrays: the table in C order, or w1, b1, w2, b2
              followed by their four snapshot arrays

The environment fixes every dimension, so the reader checks each
section's dimensions against the env's state and action counts and the
critic's goal count, and each body's length, before it allocates the
estimator. Trailing bytes are rejected, and every malformed field
raises ConfigError. Checkpoints hold everything a frozen-policy
evaluation needs; replay contents are deliberately not persisted.
"""
from __future__ import annotations

import struct

import numpy as np

from hdqn.agents.exploration import EpsilonSchedule
from hdqn.agents.flat import FlatQAgent
from hdqn.agents.hierarchical import HierarchicalAgent
from hdqn.critic import goal_set
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv
from hdqn.errors import ConfigError
from hdqn.values import MlpQ, TabularQ

_MAGIC = b"HACK"
_VERSION = 2
_KINDS = ("flat", "hdqn")
_BACKENDS = ("tabular", "mlp")


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
        self.pack("ddQ", sched.start, sched.floor, sched.horizon)

    def values(self, vf):
        self.pack(
            "BIIId",
            _BACKENDS.index(vf.kind),
            vf.n_states,
            vf.n_goals or 0,
            vf.n_choices,
            vf.learning_rate,
        )
        if vf.kind == "tabular":
            arrays = [vf.as_array()]
        else:
            self.pack("IQ", vf.hidden, vf.train_steps)
            arrays = [vf.params[n] for n in vf.PARAM_NAMES]
            arrays += [vf.snapshot[n] for n in vf.PARAM_NAMES]
        self.parts.extend(np.asarray(a, dtype="<f8").tobytes() for a in arrays)


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
        return EpsilonSchedule(*self.pack("ddQ"))

    def array(self, shape) -> np.ndarray:
        return np.frombuffer(self.raw(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)

    def values(self, n_states: int, n_goals: int | None, n_choices: int):
        """One value section, which must have exactly these dimensions."""
        backend, *dims, lr = self.pack("BIIId")
        if backend >= len(_BACKENDS):
            raise ConfigError(f"unknown value-function backend {backend}")
        want = (n_states, n_goals or 0, n_choices)
        if tuple(dims) != want:
            raise ConfigError(
                f"value-function dimensions {tuple(dims)} do not match the "
                f"environment's (states, goals, choices) {want}"
            )
        if _BACKENDS[backend] == "tabular":
            shape = (n_states, n_choices) if n_goals is None else (n_states, n_goals, n_choices)
            body = self.array(shape)
            vf = TabularQ(n_states, n_choices, n_goals=n_goals, learning_rate=lr)
            vf.load_array(body)
            return vf
        hidden, train_steps = self.pack("IQ")
        n_params = (n_states + (n_goals or 0) + 1) * hidden + (hidden + 1) * n_choices
        if 2 * 8 * n_params > len(self.data) - self.pos:
            raise ConfigError("checkpoint truncated")
        vf = MlpQ(n_states, n_choices, n_goals=n_goals, hidden=hidden, learning_rate=lr)
        vf.train_steps = train_steps
        for arrays in (vf.params, vf.snapshot):
            for name in vf.PARAM_NAMES:
                arrays[name][...] = self.array(arrays[name].shape)
        return vf


def dump_agent(agent, env) -> bytes:
    if isinstance(agent, HierarchicalAgent):
        kind = "hdqn"
    elif isinstance(agent, FlatQAgent):
        kind = "flat"
    else:
        raise TypeError(f"cannot checkpoint {type(agent).__name__}")
    w = _Writer()
    w.parts.append(_MAGIC)
    w.pack("IB", _VERSION, _KINDS.index(kind))

    if isinstance(env, ChainEnv):
        w.text("chain")
        w.text("")
        w.pack("I", 0)
    elif isinstance(env, KeyDoorEnv):
        w.text("keydoor")
        w.text(env.layout_text)
        w.pack("I", env.step_limit)
    else:
        raise TypeError(f"cannot checkpoint environment {type(env).__name__}")

    if kind == "flat":
        w.pack("Qd", agent.primitive_steps, agent.gamma)
        w.schedule(agent.eps)
        w.values(agent.q)
        return b"".join(w.parts)

    w.pack(
        "QQQQd",
        agent.primitive_steps,
        agent.joint_steps,
        agent.meta_decisions,
        agent.completed_options,
        agent.gamma,
    )
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
    if kind_id >= len(_KINDS):
        raise ConfigError(f"unknown agent kind {kind_id}")
    kind = _KINDS[kind_id]

    env_name = r.text()
    layout = r.text()
    step_limit = r.pack("I")
    if env_name == "chain":
        env = ChainEnv()
    elif env_name == "keydoor":
        env = KeyDoorEnv(layout or None, step_limit=step_limit)
    else:
        raise ConfigError(f"unknown environment {env_name!r} in checkpoint")

    if kind == "flat":
        if env_name != "chain":
            raise ConfigError("flat-agent checkpoint must target the chain environment")
        primitive_steps, gamma = r.pack("Qd")
        eps = r.schedule()
        q = r.values(env.n_states, None, env.n_actions)
        _check_end(r)
        agent = FlatQAgent(
            env.n_states,
            env.n_actions,
            learning_rate=q.learning_rate,
            gamma=gamma,
            eps=eps,
        )
        agent.q = q
        agent.primitive_steps = primitive_steps
        return agent, env, kind

    n_goals = len(goal_set(env))
    primitive_steps, joint_steps, meta_decisions, completed_options, gamma = r.pack("QQQQd")
    eps1 = r.schedule()
    eps2 = r.schedule()
    window, floor = r.pack("Id")
    windows = [[bool(b) for b in r.raw(r.pack("I"))] for _ in range(n_goals)]
    q1 = r.values(env.n_states, n_goals, env.n_actions)
    q2 = r.values(env.n_states, None, n_goals)
    _check_end(r)
    # The constructor's fresh estimators are replaced by the loaded ones.
    agent = HierarchicalAgent(
        env.n_states,
        env.n_actions,
        n_goals,
        backend=q1.kind,
        learning_rate=q1.learning_rate,
        gamma=gamma,
        eps1=eps1,
        eps2=eps2,
        eps1_floor=floor,
        tracker_window=window,
        hidden=q1.hidden if q1.kind == "mlp" else 64,  # only sizes networks
    )
    agent.q1 = q1
    agent.q2 = q2
    agent.tracker.load(windows)
    agent.primitive_steps = primitive_steps
    agent.joint_steps = joint_steps
    agent.meta_decisions = meta_decisions
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
