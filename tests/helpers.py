"""Shared test utilities."""
from __future__ import annotations

import numpy as np

from hdqn import rng
from hdqn.agents import HierarchicalAgent
from hdqn.values import MlpQ, make_estimator


def hdqn_agent(
    env,
    *,
    seed: int = 0,
    backend: str = "tabular",
    learning_rate: float = 0.00025,
    hidden: int = 64,
    target_sync: int = 1000,
    **kwargs,
) -> HierarchicalAgent:
    """A HierarchicalAgent for env around fresh estimators of the named
    backend, made as harness.build_agent makes them: a network draws its
    initial weights from the seed's INIT stream, q1 first. kwargs go to
    the agent."""
    n_goals = len(env.goal_names)
    shared = (learning_rate, hidden, target_sync, rng.stream(seed, rng.INIT))
    q1 = make_estimator(backend, env.n_states, env.n_actions, n_goals, *shared)
    q2 = make_estimator(backend, env.n_states, n_goals, None, *shared)
    return HierarchicalAgent(env, q1, q2, seed=seed, **kwargs)


def keydoor_state(
    env, agent: tuple[int, int], skull_off: int, skull_dir: int, has_key: bool
) -> int:
    """The state id of a key-door configuration, computed here from the
    factored form rather than by the env: ((cell * P + offset) * 2 +
    heading) * 2 + key, with cell = y * width + x and P the patrol
    length."""
    x, y = agent
    cell = y * env.layout.width + x
    return ((cell * env.patrol_len + skull_off) * 2 + skull_dir) * 2 + int(has_key)


def open_room(width: int, height: int, patrol: int) -> str:
    """A wall-less width x height key-door layout, rows joined by '/': the
    first row holds A, K, D and both ladders, the second row starts with
    a skull patrol of the given length."""
    first = "AKDLL" + "." * (width - 5)
    second = "S" * patrol + "." * (width - patrol)
    return "/".join([first, second] + ["." * width] * (height - 2))


def transition_columns(row, a, r, row_next, term, n_choices: int, gamma: float) -> tuple:
    """The columns (cell, row', r, disc) that replay stores for transitions
    (row, a, r, row', term), by the agent's rule: cell = row * n_choices + a,
    and disc is 0.0 where term is set and gamma elsewhere."""
    disc = np.where(term, 0.0, gamma)
    return row * n_choices + a, row_next, np.asarray(r, dtype=np.float64), disc


def columns(batch, n_choices: int, gamma: float) -> tuple:
    """Minibatch columns (cell, row', r, disc) from (row, a, r, row', term)
    tuples; see transition_columns."""
    return transition_columns(*(np.array(f) for f in zip(*batch)), n_choices, gamma)


def goal_rows(batch, n_goals: int) -> list:
    """(row, a, r, row', term) tuples from (s, g, a, r, s', term) ones,
    with the agent's controller rows s * n_goals + g and s' * n_goals + g."""
    return [(s * n_goals + g, a, r, sn * n_goals + g, term) for s, g, a, r, sn, term in batch]


def stored(buf) -> dict:
    """A replay ring's transitions oldest first, one array per column:
    "cell", "row_next", "r" and "disc"."""
    n = len(buf)
    order = np.arange(n) if n < buf.capacity else np.roll(np.arange(n), -buf.cursor)
    return {name: getattr(buf, name)[order] for name in ("cell", "row_next", "r", "disc")}


def stored_controller(agent) -> dict:
    """An agent's controller ring as stored(), plus each cell split back
    into its row and action, "row" and "a", and the rows into state and
    goal: "s", "g", "s_next" and "g_next"."""
    out = stored(agent.d1)
    out["row"], out["a"] = np.divmod(out["cell"], agent.env.n_actions)
    out["s"], out["g"] = np.divmod(out["row"], agent.n_goals)
    out["s_next"], out["g_next"] = np.divmod(out["row_next"], agent.n_goals)
    return out


def onehot(net: MlpQ, rows) -> np.ndarray:
    """The one-hot input of a batch of rows, a (k, n_states + n_goals)
    matrix: a 1 at each row's state and, with a goal axis, a 1 at
    n_states + goal."""
    rows = np.asarray(rows)
    k = rows.shape[0]
    x = np.zeros((k, net.n_states + (net.n_goals or 0)))
    if net.n_goals is None:
        x[np.arange(k), rows] = 1.0
    else:
        states, goals = np.divmod(rows, net.n_goals)
        x[np.arange(k), states] = 1.0
        x[np.arange(k), net.n_states + goals] = 1.0
    return x


def onehot_forward(params: dict, x: np.ndarray) -> tuple:
    """(z1, h, q) of the network on one-hot inputs x, z1 = x @ w1 + b1."""
    z1 = x @ params["w1"] + params["b1"]
    h = np.maximum(z1, 0.0)
    return z1, h, h @ params["w2"] + params["b2"]


def onehot_loss_and_grads(net: MlpQ, columns) -> tuple:
    """The pre-step loss, the dense gradients of a minibatch and gz1,
    computed through one-hot inputs: the first layer's gradient is
    x.T @ gz1, so w1 row i sums the gz1 rows of the inputs that select i."""
    cell, row_next, r, disc = columns
    row, a = np.divmod(cell, net.n_choices)
    y = r + disc * onehot_forward(net.snapshot, onehot(net, row_next))[2].max(axis=1)
    x = onehot(net, row)
    z1, h, q = onehot_forward(net.params, x)
    n = len(y)
    diff = q[np.arange(n), a] - y
    gq = np.zeros_like(q)
    gq[np.arange(n), a] = 2.0 * diff / n
    gz1 = (gq @ net.params["w2"].T) * (z1 > 0.0)
    grads = {"w1": x.T @ gz1, "b1": gz1.sum(axis=0), "w2": h.T @ gq, "b2": gq.sum(axis=0)}
    return float(np.mean(diff**2)), grads, gz1


def dense_grads(net: MlpQ, grads: dict) -> dict:
    """loss_and_grads' gradients with w1's (touched, rows) pair written
    into a zero array of w1's shape."""
    touched, rows = grads["w1"]
    w1 = np.zeros_like(net.params["w1"])
    w1[touched] = rows
    return {**grads, "w1": w1}


def random_net_and_batch(gen: np.random.Generator, gamma: float):
    """A random small network plus a compatible random batch of columns,
    discounted by gamma.

    Instances whose hidden pre-activations sit within 1e-3 of the
    rectifier kink are rejected by returning None: central differences
    with h=1e-5 are meaningless across the kink, and the caller
    resamples instead.
    """
    n_states = int(gen.integers(2, 7))
    n_goals = int(gen.integers(2, 5)) if gen.integers(2) else None
    hidden = int(gen.integers(1, 6))
    n_choices = int(gen.integers(2, 5))
    net = MlpQ(
        n_states,
        n_choices,
        n_goals=n_goals,
        hidden=hidden,
        learning_rate=0.01,
        init_rng=gen,
    )
    # Make the frozen snapshot genuinely different from the live net so
    # targets are not trivially tied to the parameters under test.
    for name in net.PARAM_NAMES:
        net.snapshot[name] = net.snapshot[name] + gen.normal(0.0, 0.3, net.snapshot[name].shape)

    batch = []
    for _ in range(int(gen.integers(1, 7))):
        s = int(gen.integers(n_states))
        sn = int(gen.integers(n_states))
        a = int(gen.integers(n_choices))
        r = float(gen.normal())
        term = bool(gen.integers(2))
        if n_goals is not None:
            g = int(gen.integers(n_goals))
            s, sn = s * n_goals + g, sn * n_goals + g
        batch.append((s, a, r, sn, term))

    batch = columns(batch, n_choices, gamma)
    z1 = onehot_forward(net.params, onehot(net, batch[0] // n_choices))[0]
    if np.abs(z1).min() < 1e-3:
        return None
    return net, batch


def finite_difference_grads(net: MlpQ, batch, h: float = 1e-5) -> np.ndarray:
    """Central differences, parameter by parameter in PARAM_NAMES order,
    each perturbed in place and restored."""
    grads = []
    for name in net.PARAM_NAMES:
        p = net.params[name]
        for i in np.ndindex(p.shape):
            base = p[i]
            p[i] = base + h
            plus = net.loss_and_grads(batch)[0]
            p[i] = base - h
            minus = net.loss_and_grads(batch)[0]
            p[i] = base
            grads.append((plus - minus) / (2 * h))
    return np.array(grads)


def gradcheck_worst_rel_err(n_instances: int = 100, seed: int = 0, h: float = 1e-5) -> float:
    """Worst relative error, analytic vs central differences, over
    n_instances random (net, batch) pairs."""
    gen = np.random.default_rng(seed)
    gamma = 0.9
    worst = 0.0
    done = 0
    while done < n_instances:
        drawn = random_net_and_batch(gen, gamma)
        if drawn is None:
            continue
        net, batch = drawn
        done += 1
        grads = dense_grads(net, net.loss_and_grads(batch)[1])
        analytic = np.concatenate([grads[n].ravel() for n in net.PARAM_NAMES])
        numeric = finite_difference_grads(net, batch, h=h)
        denom = np.maximum(1e-8, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    return worst
