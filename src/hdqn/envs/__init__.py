"""The tasks, their shared contract, NAMES, the names a config's env may
take, and make_env, which builds one by name."""
from hdqn.envs.base import Environment
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv
from hdqn.errors import ConfigError

__all__ = ["Environment", "ChainEnv", "KeyDoorEnv", "NAMES", "make_env"]

NAMES = (ChainEnv.name, KeyDoorEnv.name)


def make_env(name: str, layout: str, step_limit: int) -> Environment:
    """The environment called name: the one place that maps a name to a task.

    make_env(env.name, env.layout_text, env.step_limit) rebuilds an
    environment equal to env. The chain takes neither a layout nor a step
    limit and ignores both; an empty layout is key-door's default map.
    """
    if name == ChainEnv.name:
        return ChainEnv()
    if name == KeyDoorEnv.name:
        return KeyDoorEnv(layout or None, step_limit=step_limit)
    raise ConfigError(f"unknown environment {name!r}")
