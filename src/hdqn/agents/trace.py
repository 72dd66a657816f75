"""Per-episode record emitted by both agents and consumed by the harness."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EpisodeTrace:
    """What one episode did, in extrinsic terms only.

    goal_picks and goal_successes align index-for-index, one entry per
    option; both are empty for the flat agent. The states an episode
    entered are the env's record (ChainEnv.visits).
    """

    total_reward: float = 0.0
    steps: int = 0
    goal_picks: list = field(default_factory=list)
    goal_successes: list = field(default_factory=list)
