import numpy as np
import pytest

from helpers import gradcheck_worst_rel_err
from hdqn.errors import DivergenceError
from hdqn.values import MlpQ, TabularQ

# -- tabular -----------------------------------------------------------


def test_fresh_tables_are_zero():
    meta = TabularQ(4, 3)
    assert meta.values(2) == [0.0, 0.0, 0.0]
    ctrl = TabularQ(4, 2, n_goals=3)
    assert ctrl.values(1, 2) == [0.0, 0.0]
    assert np.all(ctrl.as_array() == 0.0)


def test_backup_arithmetic_terminal():
    t = TabularQ(2, 2, learning_rate=0.1)
    t.backup(0, None, 0, 1.0, 1, True, 0.99)
    assert t.values(0) == pytest.approx([0.1, 0.0])


def test_backup_arithmetic_bootstrap():
    t = TabularQ(2, 2, learning_rate=0.1)
    t.table[1][0] = 1.0
    t.backup(0, None, 1, 0.0, 1, False, 0.99)
    assert t.values(0)[1] == pytest.approx(0.099)


def test_backup_touches_one_entry_only():
    t = TabularQ(3, 2, n_goals=4, learning_rate=0.5)
    t.backup(1, 2, 0, 1.0, 2, True, 0.9)
    arr = t.as_array()
    assert arr[1, 2, 0] == pytest.approx(0.5)
    arr[1, 2, 0] = 0.0
    assert np.all(arr == 0.0)


def test_train_on_equals_sequential_backups():
    gen = np.random.default_rng(3)
    a_tab = TabularQ(5, 3, n_goals=4, learning_rate=0.3)
    b_tab = TabularQ(5, 3, n_goals=4, learning_rate=0.3)
    batch = [
        (
            int(gen.integers(5)),
            int(gen.integers(4)),
            int(gen.integers(3)),
            float(gen.normal()),
            int(gen.integers(5)),
            bool(gen.integers(2)),
        )
        for _ in range(64)
    ]
    a_tab.train_on(batch, 0.95)
    for s, g, a, r, sn, term in batch:
        b_tab.backup(s, g, a, r, sn, term, 0.95)
    assert np.array_equal(a_tab.as_array(), b_tab.as_array())


def test_train_on_equals_sequential_backups_meta_shape():
    a_tab = TabularQ(4, 6, learning_rate=0.2)
    b_tab = TabularQ(4, 6, learning_rate=0.2)
    batch = [(0, 3, 1.0, 2, False), (2, 1, 0.0, 0, True), (0, 3, 0.5, 2, False)]
    a_tab.train_on(batch, 0.9)
    for s, c, r, sn, term in batch:
        b_tab.backup(s, None, c, r, sn, term, 0.9)
    assert np.array_equal(a_tab.as_array(), b_tab.as_array())


def test_values_bounds_checking():
    t = TabularQ(3, 2, n_goals=2)
    with pytest.raises(IndexError):
        t.values(3, 0)
    with pytest.raises(IndexError):
        t.values(-1, 0)
    with pytest.raises(IndexError):
        t.values(0, 2)
    with pytest.raises(IndexError):
        t.values(0)  # goal required
    meta = TabularQ(3, 2)
    with pytest.raises(IndexError):
        meta.values(0, 1)  # no goal axis


def test_table_validation():
    with pytest.raises(ValueError):
        TabularQ(0, 2)
    with pytest.raises(ValueError):
        TabularQ(2, 2, learning_rate=0.0)
    with pytest.raises(ValueError):
        TabularQ(2, 2, learning_rate=1.5)
    with pytest.raises(ValueError):
        TabularQ(2, 2, n_goals=0)


def test_toy_mdp_convergence_with_decaying_alpha():
    """Deterministic 2-state MDP: a0 pays 1 and ends; a1 pays 0.05 and
    self-loops. With gamma=0.9, Q* = (1.0, 0.95)."""
    gamma = 0.9
    t = TabularQ(2, 2)
    counts = [0, 0]
    for _ in range(500):
        for a, (r, sn, term) in enumerate([(1.0, 1, True), (0.05, 0, False)]):
            counts[a] += 1
            t.learning_rate = 1.0 / counts[a]
            t.backup(0, None, a, r, sn, term, gamma)
    assert abs(t.values(0)[0] - 1.0) < 1e-6
    assert abs(t.values(0)[1] - 0.95) < 1e-6


# -- network -----------------------------------------------------------


def zeroed_net(**kw) -> MlpQ:
    net = MlpQ(init_rng=np.random.default_rng(0), **kw)
    for p in net.params.values():
        p[...] = 0.0
    net.sync_target()
    return net


def test_zero_net_outputs_zero():
    net = zeroed_net(n_states=4, n_choices=3, n_goals=2, hidden=5)
    assert np.array_equal(net.values(1, 0), np.zeros(3))


def test_encoding_is_one_or_two_hot():
    net = MlpQ(5, 2, n_goals=3, hidden=4, init_rng=np.random.default_rng(1))
    x = net.encode([2, 4], [0, 2])
    assert x.shape == (2, 8)
    assert np.array_equal(np.sort(np.unique(x)), [0.0, 1.0])
    assert np.array_equal(x.sum(axis=1), [2.0, 2.0])
    assert x[0, 2] == 1.0 and x[0, 5] == 1.0
    assert x[1, 4] == 1.0 and x[1, 7] == 1.0
    meta = MlpQ(5, 3, init_rng=np.random.default_rng(1))
    xm = meta.encode([3])
    assert xm.sum() == 1.0 and xm[0, 3] == 1.0
    with pytest.raises(IndexError):
        meta.encode([0], [0])
    with pytest.raises(IndexError):
        net.encode([0])


def test_perfect_targets_mean_zero_loss_and_no_update():
    net = MlpQ(3, 2, hidden=4, learning_rate=0.5, init_rng=np.random.default_rng(2))
    net.sync_target()
    # Terminal transitions whose rewards equal the net's own outputs.
    batch = [
        (s, a, float(net.values(s)[a]), 0, True) for s in range(3) for a in range(2)
    ]
    before = net.flat_params()
    loss = net.train_on(batch, 0.99)
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert np.allclose(net.flat_params(), before, atol=1e-12)


def test_hand_derived_sgd_step():
    """One transition, one hidden unit: every number checked by hand."""
    net = zeroed_net(n_states=2, n_choices=1, hidden=1, learning_rate=0.1)
    net.params["w1"][...] = [[0.5], [0.0]]
    net.params["w2"][...] = [[0.25]]
    net.sync_target()
    loss = net.train_on([(0, 0, 1.0, 1, True)], 0.99)
    # q = relu(0.5) * 0.25 = 0.125; loss = (0.125 - 1)^2 = 0.765625
    assert loss == pytest.approx(0.765625, abs=1e-15)
    # gradient: dq = 2*(q - y) = -1.75; dw2 = h*dq = -0.875; db2 = -1.75;
    # dh = dq*w2 = -0.4375 (relu active); dw1 = x*dh; db1 = dh
    assert net.params["w2"][0, 0] == pytest.approx(0.3375, abs=1e-15)
    assert net.params["b2"][0] == pytest.approx(0.175, abs=1e-15)
    assert net.params["w1"][0, 0] == pytest.approx(0.54375, abs=1e-15)
    assert net.params["w1"][1, 0] == pytest.approx(0.0, abs=1e-15)
    assert net.params["b1"][0] == pytest.approx(0.04375, abs=1e-15)


def test_snapshot_frozen_until_sync():
    net = MlpQ(4, 2, hidden=6, learning_rate=0.05, init_rng=np.random.default_rng(4))
    net.sync_target()
    snap_before = {k: v.copy() for k, v in net.snapshot.items()}
    batch = [(0, 0, 1.0, 1, False), (1, 1, -0.5, 2, False), (2, 0, 0.3, 3, True)]
    for _ in range(100):
        net.train_on(batch, 0.95)
    for k in net.PARAM_NAMES:
        assert np.array_equal(net.snapshot[k], snap_before[k])
        assert not np.array_equal(net.params[k], snap_before[k])
    net.sync_target()
    for k in net.PARAM_NAMES:
        assert np.array_equal(net.snapshot[k], net.params[k])
    assert net.train_steps == 100


def test_loss_decreases_on_fixed_batch():
    gen = np.random.default_rng(5)
    net = MlpQ(4, 2, hidden=8, learning_rate=0.05, init_rng=gen)
    # Distinct (state, action) pairs so the targets are jointly fittable.
    batch = [
        (s, a, float(gen.normal()), 0, True) for s in range(4) for a in range(2)
    ]
    first = net.loss_and_grads(batch, 0.99)[0]
    last = 0.0
    for _ in range(1000):
        last = net.train_on(batch, 0.99)
    assert last < first / 10


def test_divergence_raises():
    net = MlpQ(3, 2, hidden=4, init_rng=np.random.default_rng(6))
    net.params["w2"][...] = np.inf
    with pytest.raises(DivergenceError):
        net.train_on([(0, 0, 1.0, 1, True)], 0.99)


def test_gradient_check_small():
    # The full 100-instance sweep runs in the acceptance suite.
    assert gradcheck_worst_rel_err(n_instances=10, seed=1) < 1e-4
