"""HierarchicalAgent agrees bit for bit with the plain reference agent.

Both train on one seed through a pretraining and a joint phase, past
both warm-ups and past both rings' capacities, on the chain and on a
small key-door room. After every episode their traces and step counters
must be equal; at the end so must both tables (as bytes), both rings
position by position, and the tracker's windows.
"""
import numpy as np
import pytest

from helpers import hdqn_agent
from hdqn import rng
from hdqn.agents import EpsilonSchedule
from hdqn.envs.chain import ChainEnv
from hdqn.envs.keydoor import KeyDoorEnv
from reference_agent import ReferenceAgent

SETTINGS = dict(
    learning_rate=0.1,
    gamma=0.95,
    d1_capacity=700,
    d2_capacity=150,
    d1_warmup=64,
    d2_warmup=32,
    batch_size=8,
    tracker_window=20,
)
FLOOR, EPS1_HORIZON, EPS2_HORIZON = 0.1, 1500, 1000

ROOM = "#######/#.A.LL#/#.SS..#/#K...D#/#######"
CASES = {
    # environment, pretraining steps, joint episodes
    "chain": (ChainEnv, 1500, 400),
    "keydoor": (lambda: KeyDoorEnv(ROOM, step_limit=40), 2000, 120),
}


def ring(buf) -> list:
    n = len(buf)
    return list(zip(*(getattr(buf, c)[:n].tolist() for c in ("cell", "row_next", "r", "disc"))))


@pytest.mark.parametrize("case", sorted(CASES))
def test_agent_is_bit_equal_to_the_reference(case):
    make_env, pretrain_steps, episodes = CASES[case]
    seed = 3
    agent = hdqn_agent(
        make_env(),
        seed=seed,
        eps1=EpsilonSchedule(FLOOR, EPS1_HORIZON),
        eps2=EpsilonSchedule(FLOOR, EPS2_HORIZON),
        **SETTINGS,
    )
    ref = ReferenceAgent(
        make_env(),
        seed=seed,
        floor=FLOOR,
        eps1_horizon=EPS1_HORIZON,
        eps2_horizon=EPS2_HORIZON,
        **SETTINGS,
    )
    agent_gen, ref_gen = rng.stream(seed, rng.ENV), rng.stream(seed, rng.ENV)

    def counters(a):
        return a.primitive_steps, a.joint_steps, a.completed_options

    def episode(phase):
        tr = agent.run_episode(agent_gen, phase=phase)
        assert (tr.total_reward, tr.steps, tr.goal_picks, tr.goal_successes) == ref.run_episode(
            ref_gen, phase
        )
        assert counters(agent) == counters(ref)

    while agent.primitive_steps < pretrain_steps:
        episode("pretrain")
    joint_from = agent.primitive_steps
    for _ in range(episodes):
        episode("joint")

    assert agent.joint_steps == agent.primitive_steps - joint_from > EPS2_HORIZON
    assert agent.completed_options > SETTINGS["d2_capacity"]  # both rings wrapped
    assert agent.q1.table.tobytes() == np.array(ref.q1).tobytes()
    assert agent.q2.table.tobytes() == np.array(ref.q2).tobytes()
    assert np.any(agent.q2.table != 0.0)
    for buf, ref_buf in ((agent.d1, ref.d1), (agent.d2, ref.d2)):
        assert (len(buf), buf.cursor) == (len(ref_buf.rows), ref_buf.cursor)
        assert ring(buf) == ref_buf.rows
    assert agent.tracker.dump() == ref.outcomes
