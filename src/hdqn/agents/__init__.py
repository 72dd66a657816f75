from hdqn.agents.exploration import EpsilonSchedule, GoalSuccessTracker, eps_greedy
from hdqn.agents.flat import FlatQAgent
from hdqn.agents.hierarchical import HierarchicalAgent
from hdqn.agents.trace import EpisodeTrace

# The agent kinds, each agent's `kind`; a kind's index is its checkpoint code.
KINDS = (FlatQAgent.kind, HierarchicalAgent.kind)

__all__ = [
    "KINDS",
    "EpisodeTrace",
    "EpsilonSchedule",
    "FlatQAgent",
    "GoalSuccessTracker",
    "HierarchicalAgent",
    "eps_greedy",
]
