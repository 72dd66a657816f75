"""Shared test utilities."""
from __future__ import annotations

import numpy as np

from hdqn.values import MlpQ


def random_net_and_batch(gen: np.random.Generator):
    """A random small network plus a compatible random batch.

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
        if n_goals is None:
            batch.append((s, a, r, sn, term))
        else:
            batch.append((s, int(gen.integers(n_goals)), a, r, sn, term))

    if n_goals is None:
        x = net.encode([b[0] for b in batch])
    else:
        x = net.encode([b[0] for b in batch], [b[1] for b in batch])
    z1 = x @ net.params["w1"] + net.params["b1"]
    if np.abs(z1).min() < 1e-3:
        return None
    return net, batch


def finite_difference_grads(net: MlpQ, batch, gamma: float, h: float = 1e-5) -> np.ndarray:
    base = net.flat_params()
    grads = np.empty_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] += h
        net.load_flat_params(bumped)
        plus = net.loss_and_grads(batch, gamma)[0]
        bumped[i] -= 2 * h
        net.load_flat_params(bumped)
        minus = net.loss_and_grads(batch, gamma)[0]
        grads[i] = (plus - minus) / (2 * h)
    net.load_flat_params(base)
    return grads


def gradcheck_worst_rel_err(n_instances: int = 100, seed: int = 0, h: float = 1e-5) -> float:
    """Worst relative error, analytic vs central differences, over
    n_instances random (net, batch) pairs."""
    gen = np.random.default_rng(seed)
    gamma = 0.9
    worst = 0.0
    done = 0
    while done < n_instances:
        drawn = random_net_and_batch(gen)
        if drawn is None:
            continue
        net, batch = drawn
        done += 1
        _, grads = net.loss_and_grads(batch, gamma)
        analytic = np.concatenate([grads[n].ravel() for n in net.PARAM_NAMES])
        numeric = finite_difference_grads(net, batch, gamma, h=h)
        denom = np.maximum(1e-8, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    return worst
