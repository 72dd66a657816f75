"""Experiment configuration: a flat key=value text format and its schema.

A file that sets nothing reproduces the six-state chain experiment with
the two-level agent on tabular value functions. Shipped configs override
only what differs.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from hdqn.agents import KINDS
from hdqn.checkpoint import FIELD_BITS
from hdqn.envs import NAMES, make_env
from hdqn.errors import ConfigError
from hdqn.replay import UNIFORM_BLOCK
from hdqn.values import BACKENDS

# Most rows of a replay memory: 24 bytes a row (two int32 and two float64
# columns), 2.4 GB at most. The shipped configs use up to 1,000,000.
MAX_CAPACITY = 10**8
# Most hidden units: a network keeps two arrays of 8 bytes x inputs x
# hidden, w1 and its snapshot, 21 MB each at 1024 units in the shipped
# key-door room (2596 inputs). The default is 64.
MAX_HIDDEN = 1024
# Most first-layer weights of a network, (states + goals) x hidden: 64 MiB
# an array, which bounds hidden for a large room as MAX_HIDDEN does for
# the shipped one (2596 x 1024 = 2.7M).
MAX_MLP_WEIGHTS = 2**23
# Most rows of a minibatch: one replay uniform block, 128 times the default 32.
MAX_BATCH_SIZE = UNIFORM_BLOCK
_MOST = dict(
    d1_capacity=MAX_CAPACITY, d2_capacity=MAX_CAPACITY, hidden=MAX_HIDDEN, batch_size=MAX_BATCH_SIZE
)


@dataclass(frozen=True)
class ExperimentConfig:
    env: str = "chain"
    agent: str = "hdqn"
    backend: str = "tabular"
    seeds: tuple = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    episodes: int = 50_000
    pretrain_steps: int = 0
    learning_rate: float = 0.00025
    gamma: float = 0.99
    eps1_horizon: int = 50_000
    eps2_horizon: int = 50_000
    eps_floor: float = 0.1
    d1_capacity: int = 100_000
    d2_capacity: int = 100_000
    d1_warmup: int = 100
    d2_warmup: int = 100
    batch_size: int = 32
    tracker_window: int = 100
    hidden: int = 64
    target_sync: int = 1000
    reward_window: int = 1000
    visit_window: int = 1000
    step_limit: int = 500
    layout: str = ""
    workers: int = 0
    out_dir: str = "results"

    def validate(self) -> "ExperimentConfig":
        def bad(msg):
            return ConfigError(f"invalid config: {msg}")

        if self.env not in NAMES:
            raise bad(f"env must be one of {NAMES}, got {self.env!r}")
        if self.agent not in KINDS:
            raise bad(f"agent must be one of {KINDS}, got {self.agent!r}")
        if self.backend not in BACKENDS:
            raise bad(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.agent == "flat" and self.env != "chain":
            raise bad("the flat baseline is defined for the chain environment only")
        if self.agent == "flat" and self.backend != "tabular":
            raise bad("the flat baseline is tabular only")
        if self.agent == "flat" and self.pretrain_steps > 0:
            raise bad("the flat baseline has no pretraining phase (pretrain_steps must be 0)")
        if not self.seeds:
            raise bad("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise bad("seeds must be distinct")
        if any(not 0 <= s < 2**64 for s in self.seeds):
            raise bad("seeds must be non-negative 64-bit integers (below 2**64)")
        for name in (
            "episodes",
            "eps1_horizon",
            "eps2_horizon",
            "d1_capacity",
            "d2_capacity",
            "d1_warmup",
            "d2_warmup",
            "batch_size",
            "tracker_window",
            "hidden",
            "target_sync",
            "reward_window",
            "visit_window",
            "step_limit",
        ):
            if getattr(self, name) < 1:
                raise bad(f"{name} must be >= 1, got {getattr(self, name)}")
        # A ring never holds more rows than its capacity, so a larger
        # warm-up would leave that level untrained for the whole run.
        for level in ("d1", "d2"):
            warmup, capacity = getattr(self, level + "_warmup"), getattr(self, level + "_capacity")
            if warmup > capacity:
                raise bad(f"{level}_warmup must be <= {level}_capacity = {capacity}, got {warmup}")
        # A checkpoint stores these in fixed-width fields, so a larger
        # value would fail only after training, when the run is saved.
        for name, bits in FIELD_BITS.items():
            if getattr(self, name) >= 2**bits:
                raise bad(f"{name} must be below 2**{bits}, got {getattr(self, name)}")
        # Larger sizes would end in a memory error when the agent is built or samples.
        for name, most in _MOST.items():
            if getattr(self, name) > most:
                raise bad(f"{name} must be <= {most}, got {getattr(self, name)}")
        if self.pretrain_steps < 0:
            raise bad(f"pretrain_steps must be >= 0, got {self.pretrain_steps}")
        if not 0 <= self.workers <= MAX_WORKERS:
            raise bad(f"workers must be in [0, {MAX_WORKERS}] (0 means auto), got {self.workers}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise bad(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.backend == "tabular" and self.learning_rate > 1:
            raise bad(f"learning_rate must be <= 1 for tabular values, got {self.learning_rate}")
        if not 0.0 <= self.gamma <= 1.0:
            raise bad(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.eps_floor <= 1.0:
            raise bad(f"eps_floor must be in [0, 1], got {self.eps_floor}")
        if self.layout and self.env != "keydoor":
            raise bad("layout applies to the keydoor environment only")
        # Builds the room once (0.14 ms for key-door), so a bad layout
        # fails here, before any output directory or worker exists.
        env = make_env(self.env, self.layout, self.step_limit)
        weights = (env.n_states + len(env.goal_names)) * self.hidden
        if self.backend == "mlp" and weights > MAX_MLP_WEIGHTS:
            raise bad(
                f"(n_states + n_goals) * hidden = {weights} network weights, "
                f"more than MAX_MLP_WEIGHTS = {MAX_MLP_WEIGHTS}"
            )
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_COMMENT = re.compile(r"\s+#")
MAX_SEEDS = 65536  # most seeds one `seeds` line may expand to
# Most worker processes a `workers` line may ask for. A fork pool starts
# them all at once, each an interpreter with numpy and an agent (about
# 40 MB at the shipped sizes), so 2.6 GB at this bound.
MAX_WORKERS = 64


def _parse_seeds(raw: str):
    seeds = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            a, b = (int(lo), int(hi)) if dash else (int(part),) * 2
            if b < a:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad seed entry {part!r} (want N or A-B)") from None
        if len(seeds) + b - a + 1 > MAX_SEEDS:
            raise ValueError(f"{part!r} takes the seed list past MAX_SEEDS = {MAX_SEEDS}")
        seeds.extend(range(a, b + 1))
    return tuple(seeds)


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if key == "seeds":
        return _parse_seeds(raw)
    if kind in ("int", int):
        return int(raw)
    if kind in ("float", float):
        return float(raw)
    return raw


def parse_config(text: str, source: str = "<config>") -> dict:
    """Parse flat key=value lines into a field dict.

    Lines are `key = value`; blank lines are ignored. A `#` starts a
    comment only as the first non-blank character of a line or after whitespace
    inside a value, so `layout = #######/#.A.LL#/...` keeps its walls
    while `episodes = 200   # short run` drops the comment. Diagnostics
    carry the source name and 1-based line number.
    """
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = stripped.partition("=")
        key = key.strip()
        raw = _COMMENT.split(raw.strip(), maxsplit=1)[0]
        if not eq or not key:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not raw:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        try:
            out[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config file, apply overrides, validate."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    settings = parse_config(text, source=path)
    if overrides:
        settings.update(overrides)
    return ExperimentConfig(**settings).validate()


def default_config(**overrides) -> ExperimentConfig:
    return replace(ExperimentConfig(), **overrides).validate()
