import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    columns,
    dense_grads,
    goal_rows,
    gradcheck_worst_rel_err,
    onehot,
    onehot_forward,
    onehot_loss_and_grads,
    transition_columns,
)
from hdqn import rng
from hdqn.agents import EpsilonSchedule, FlatQAgent
from hdqn.envs.chain import ChainEnv
from hdqn.errors import DivergenceError
from hdqn.values import BACKENDS, MlpQ, TabularQ, make_estimator

# -- tabular -----------------------------------------------------------


def test_fresh_tables_are_zero():
    meta = TabularQ(4, 3)
    assert meta.values(2) == [0.0, 0.0, 0.0]
    ctrl = TabularQ(4, 2, n_goals=3)
    assert ctrl.values(1 * 3 + 2) == [0.0, 0.0]
    assert ctrl.table.shape == (4 * 3, 2)
    assert np.all(ctrl.table == 0.0)


def test_backup_arithmetic_terminal():
    t = TabularQ(2, 2, learning_rate=0.1)
    t.backup(0, 0, 1.0, 1, True, 0.99)
    assert t.values(0) == pytest.approx([0.1, 0.0])


def test_backup_arithmetic_bootstrap():
    t = TabularQ(2, 2, learning_rate=0.1)
    t.table[1, 0] = 1.0
    t.backup(0, 1, 0.0, 1, False, 0.99)
    assert t.values(0)[1] == pytest.approx(0.099)


def test_backup_touches_one_entry_only():
    t = TabularQ(3, 2, n_goals=4, learning_rate=0.5)
    t.backup(1 * 4 + 2, 0, 1.0, 2 * 4 + 2, True, 0.9)
    arr = t.table.copy()
    assert arr[1 * 4 + 2, 0] == pytest.approx(0.5)
    arr[1 * 4 + 2, 0] = 0.0
    assert np.all(arr == 0.0)


def test_train_on_targets_come_from_the_pre_batch_table():
    """Item 0 raises Q(0, a=1); item 1 bootstraps from row 0 and must see
    the old value, not the one item 0 wrote."""
    t = TabularQ(3, 2, learning_rate=0.5)
    t.table[0] = [0.0, 2.0]
    t.train_on(columns([(0, 1, 10.0, 2, True), (1, 0, 0.0, 0, False)], 2, 0.9))
    assert t.table[0, 1] == 2.0 + 0.5 * (10.0 - 2.0)
    assert t.table[1, 0] == 0.5 * (0.9 * 2.0)


def test_train_on_repeated_cell_adds_alpha_delta_per_item():
    t = TabularQ(2, 2, n_goals=2, learning_rate=0.25)
    t.table[0 * 2 + 1, 0] = 1.0
    t.table[1 * 2 + 1] = [3.0, 4.0]
    items = [(0, 1, 0, 2.0, 1, True), (0, 1, 0, 0.0, 1, False), (0, 1, 0, 5.0, 1, True)]
    t.train_on(columns(goal_rows(items, 2), 2, 0.5))
    deltas = [2.0 - 1.0, 0.5 * 4.0 - 1.0, 5.0 - 1.0]
    assert t.table[0 * 2 + 1, 0] == pytest.approx(1.0 + 0.25 * sum(deltas), abs=1e-15)
    t.table[0 * 2 + 1, 0] = 0.0
    assert np.count_nonzero(t.table) == 2  # only the bootstrap row is left


def row_max_train_on(table, lr, cell, row_next, r, disc) -> None:
    """train_on with the bootstrap max taken as .max(axis=1)."""
    cells = table.reshape(-1)
    delta = r + disc * table.take(row_next, axis=0).max(axis=1) - cells.take(cell)
    np.add.at(cells, cell, lr * delta)


@pytest.mark.parametrize("n_choices", [1, 2, 4, 6])
def test_train_on_is_bit_equal_to_the_row_max_update(n_choices):
    """One estimator trained on batches of k = 1, 7, 32 and 7 items, so
    the cached segment starts are built, rebuilt and rebuilt back. With
    five rows, cells repeat within a batch and bootstrap rows are rows
    the same batch updates; values on a coarse grid make ties in the
    max. Tables match the .max(axis=1) update bit for bit."""
    gen = np.random.default_rng(n_choices)
    n_rows, lr = 5, 0.3
    t = TabularQ(n_rows, n_choices, learning_rate=lr)
    t.table[...] = np.round(gen.normal(size=t.table.shape), 1)
    ref = t.table.copy()
    for k in (1, 7, 32, 7):
        cell = gen.integers(0, n_rows * n_choices, k).astype(np.int32)
        row_next = gen.integers(0, n_rows, k).astype(np.int32)
        r = gen.normal(size=k)
        disc = np.where(gen.random(k) < 0.3, 0.0, 0.9)
        t.train_on((cell, row_next, r, disc))
        row_max_train_on(ref, lr, cell, row_next, r, disc)
        assert t.table.tobytes() == ref.tobytes()
    assert len(np.unique(cell)) < k  # the last batch repeats a cell


def sequential(t: TabularQ, items, gamma: float) -> None:
    for item in items:
        t.backup(*item, gamma)


@pytest.mark.parametrize("n_goals", [None, 4])
def test_train_on_equals_sequential_backups_without_overlap(n_goals):
    """Distinct cells in states 0-4, bootstrap rows in states 5-9: nothing
    one item writes is read or written by another, so the batch-synchronous
    update and item-by-item backups agree bit for bit."""
    gen = np.random.default_rng(3)
    batch_tab = TabularQ(10, 3, n_goals=n_goals, learning_rate=0.3)
    batch_tab.table[...] = gen.normal(size=batch_tab.table.shape)
    seq_tab = TabularQ(10, 3, n_goals=n_goals, learning_rate=0.3)
    seq_tab.table[...] = batch_tab.table
    cells = {}
    while len(cells) < 8:
        goal = () if n_goals is None else (int(gen.integers(n_goals)),)
        cell = (int(gen.integers(5)), *goal, int(gen.integers(3)))
        cells[cell] = (float(gen.normal()), int(gen.integers(5, 10)), bool(gen.integers(2)))
    items = [(*cell, *rest) for cell, rest in cells.items()]
    if n_goals is not None:
        items = goal_rows(items, n_goals)
    before = batch_tab.table.copy()
    batch_tab.train_on(columns(items, 3, 0.95))
    sequential(seq_tab, items, 0.95)
    assert np.array_equal(batch_tab.table, seq_tab.table)
    assert np.count_nonzero(batch_tab.table != before) == len(items)


def reference_train_on(table, lr, s, g, a, r, s_next, term, gamma) -> None:
    """The update on an (s, [g,] a) table as it was written before rows:
    goal-conditioned tables were (n_states, n_goals, n_choices) arrays
    indexed through ravel_multi_index."""
    if g is None:
        cell = np.ravel_multi_index((s, a), table.shape)
        bootstrap = table.take(s_next, axis=0)
    else:
        cell = np.ravel_multi_index((s, g, a), table.shape)
        row_next = np.ravel_multi_index((s_next, g), table.shape[:2])
        bootstrap = table.reshape(-1, table.shape[-1]).take(row_next, axis=0)
    target = r + gamma * (1.0 - term) * bootstrap.max(axis=1)
    cells = table.reshape(-1)
    delta = target - cells.take(cell)
    np.add.at(cells, cell, lr * delta)


@given(
    n_states=st.integers(1, 4),
    n_goals=st.one_of(st.none(), st.integers(1, 3)),
    n_choices=st.integers(1, 3),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    lr=st.floats(0.01, 1.0),
    gamma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_train_on_rows_is_bit_equal_to_the_state_goal_update(
    n_states, n_goals, n_choices, sizes, lr, gamma, seed
):
    """train_on, fed the columns the agent stores (cell and disc formed
    at push time), and the (s, g, a) reference leave bit-equal tables,
    batch after batch. The index ranges are
    small, so batches repeat cells and bootstrap from rows that other
    items write."""
    gen = np.random.default_rng(seed)
    t = TabularQ(n_states, n_choices, n_goals=n_goals, learning_rate=lr)
    t.table[...] = gen.normal(size=t.table.shape)
    shape = (n_states, n_choices) if n_goals is None else (n_states, n_goals, n_choices)
    ref = t.table.reshape(shape).copy()
    for k in sizes:
        s, s_next = gen.integers(n_states, size=(2, k))
        a = gen.integers(n_choices, size=k)
        r = gen.normal(size=k)
        term = gen.integers(2, size=k).astype(np.float64)
        g = None if n_goals is None else gen.integers(n_goals, size=k)
        if g is None:
            row, row_next = s, s_next
        else:
            row, row_next = s * n_goals + g, s_next * n_goals + g
        t.train_on(transition_columns(row, a, r, row_next, term, n_choices, gamma))
        reference_train_on(ref, lr, s, g, a, r, s_next, term, gamma)
        assert np.array_equal(t.table.reshape(-1), ref.reshape(-1))


def test_flat_agent_inline_rule_is_tabular_backup():
    """The flat agent's per-step list update is TabularQ.backup: replaying
    its transitions through backup rebuilds its table bit for bit."""
    env = ChainEnv()
    agent = FlatQAgent(env, seed=3, learning_rate=0.3, gamma=0.9, eps=EpsilonSchedule(horizon=400))
    steps = []
    reset, step = env.reset, env.step
    current = []

    def recording_reset():
        current[:] = [reset()]
        return current[0]

    def recording_step(action, gen):
        s_next, r, done = step(action, gen)
        steps.append((current[0], action, r, s_next, done))
        current[0] = s_next
        return s_next, r, done

    env.reset, env.step = recording_reset, recording_step
    env_gen = rng.stream(3, rng.ENV)
    for _ in range(200):
        agent.run_episode(env_gen)
    assert len(steps) == agent.primitive_steps
    ref = TabularQ(6, 2, learning_rate=0.3)
    sequential(ref, steps, 0.9)
    assert np.any(ref.table != 0.0)
    assert np.array_equal(np.array(agent.table), ref.table)


def test_values_bounds_checking():
    """Rows run over states times goals, or over states alone at the
    meta level; both backends reject any other row."""
    for vf in (TabularQ(3, 2, n_goals=2), MlpQ(3, 2, n_goals=2, hidden=2)):
        assert len(vf.values(5)) == 2
        for row in (6, -1):
            with pytest.raises(IndexError):
                vf.values(row)
    for vf in (TabularQ(3, 2), MlpQ(3, 2, hidden=2)):
        assert len(vf.values(2)) == 2
        for row in (3, -1):
            with pytest.raises(IndexError):
                vf.values(row)


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
def test_network_learning_rate_must_be_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        MlpQ(3, 2, learning_rate=lr)


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
            t.backup(0, a, r, sn, term, gamma)
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
    assert np.array_equal(net.values(1 * 2 + 0), np.zeros(3))


def selected_inputs(net: MlpQ, rows) -> np.ndarray:
    """The input matrix whose 1s are the w1 rows _w1_rows selects."""
    w1_rows = net._w1_rows(np.asarray(rows))
    x = np.zeros((w1_rows.shape[0], net.params["w1"].shape[0]))
    np.put_along_axis(x, w1_rows, 1.0, axis=1)
    return x


def test_encoding_is_one_or_two_hot():
    net = MlpQ(5, 2, n_goals=3, hidden=4, init_rng=np.random.default_rng(1))
    assert np.array_equal(net._w1_rows(np.array([2 * 3 + 0, 4 * 3 + 2])), [[2, 5], [4, 7]])
    x = selected_inputs(net, [2 * 3 + 0, 4 * 3 + 2])
    assert x.shape == (2, 8)
    assert np.array_equal(np.sort(np.unique(x)), [0.0, 1.0])
    assert np.array_equal(x.sum(axis=1), [2.0, 2.0])
    assert x[0, 2] == 1.0 and x[0, 5] == 1.0
    assert x[1, 4] == 1.0 and x[1, 7] == 1.0
    meta = MlpQ(5, 3, init_rng=np.random.default_rng(1))
    assert np.array_equal(meta._w1_rows(np.array([3])), [[3]])
    xm = selected_inputs(meta, [3])
    assert xm.sum() == 1.0 and xm[0, 3] == 1.0


@given(
    n_states=st.integers(1, 6),
    n_goals=st.one_of(st.none(), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_encode_rows_equals_the_state_goal_encoding(n_states, n_goals, seed):
    """The w1 rows a batch of rows selects are the one-hot state plus
    one-hot goal input that the network took as separate state and goal
    indices."""
    gen = np.random.default_rng(seed)
    net = MlpQ(n_states, 2, n_goals=n_goals, hidden=2)
    n = int(gen.integers(1, 20))
    states = gen.integers(n_states, size=n)
    expected = np.zeros((n, n_states + (n_goals or 0)))
    expected[np.arange(n), states] = 1.0
    if n_goals is None:
        rows = states
    else:
        goals = gen.integers(n_goals, size=n)
        expected[np.arange(n), n_states + goals] = 1.0
        rows = states * n_goals + goals
    assert np.array_equal(selected_inputs(net, rows), expected)
    assert np.array_equal(onehot(net, rows), expected)


@given(
    n_states=st.integers(1, 6),
    n_goals=st.one_of(st.none(), st.integers(1, 5)),
    repeat=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_row_selected_first_layer_equals_the_onehot_reference(n_states, n_goals, repeat, seed):
    """The forward pass on selected w1 rows is bit-equal to x @ w1 + b1
    on one-hot inputs, and the touched-row gradient, written densely,
    is x.T @ gz1. Summing a w1 row's items is order-free while at most
    two items select it; past that the order of the sum may differ from
    the matrix product's. Either order's rounding error is within
    (k - 1) * eps / 2 of the sum of the items' magnitudes, not of the
    result's, which may nearly cancel, so the two differ by at most
    k * eps times that sum for a batch of k."""
    gen = np.random.default_rng(seed)
    n_choices = 3
    net = MlpQ(n_states, n_choices, n_goals=n_goals, hidden=4, init_rng=gen)
    for name in net.PARAM_NAMES:
        net.snapshot[name] = net.snapshot[name] + gen.normal(0.0, 0.3, net.snapshot[name].shape)
    n_rows = n_states * (n_goals or 1)
    k = int(gen.integers(1, 20))
    row = gen.integers(n_rows, size=k)
    if repeat:  # the first row again: its state and its goal repeat
        row = np.append(row, row[0])
    a = gen.integers(n_choices, size=row.size)
    term = gen.integers(2, size=row.size).astype(bool)
    batch = transition_columns(
        row, a, gen.normal(size=row.size), gen.integers(n_rows, size=row.size), term, n_choices, 0.9
    )
    for params in (net.params, net.snapshot):
        got = net._forward(params, net._w1_rows(row))
        want = onehot_forward(params, onehot(net, row))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    loss, grads = net.loss_and_grads(batch)
    ref_loss, ref, gz1 = onehot_loss_and_grads(net, batch)
    assert loss == ref_loss
    grads = dense_grads(net, grads)
    for name in ("b1", "w2", "b2"):
        assert np.array_equal(grads[name], ref[name])
    x = onehot(net, row)
    if x.sum(axis=0).max() <= 2:
        assert np.array_equal(grads["w1"], ref["w1"])
    else:
        bound = row.size * np.finfo(float).eps * (x.T @ np.abs(gz1))
        assert np.all(np.abs(grads["w1"] - ref["w1"]) <= bound)


def test_perfect_targets_mean_zero_loss_and_no_update():
    net = MlpQ(3, 2, hidden=4, learning_rate=0.5, init_rng=np.random.default_rng(2))
    net.sync_target()
    # Terminal transitions whose rewards equal the net's own outputs.
    batch = [
        (s, a, float(net.values(s)[a]), 0, True) for s in range(3) for a in range(2)
    ]
    before = {name: p.copy() for name, p in net.params.items()}
    loss = net.loss_and_grads(columns(batch, 2, 0.99))[0]
    net.train_on(columns(batch, 2, 0.99))
    assert loss == pytest.approx(0.0, abs=1e-24)
    for name, p in before.items():
        assert np.allclose(net.params[name], p, atol=1e-12)


def test_hand_derived_sgd_step():
    """One transition, one hidden unit: every number checked by hand."""
    net = zeroed_net(n_states=2, n_choices=1, hidden=1, learning_rate=0.1)
    net.params["w1"][...] = [[0.5], [0.0]]
    net.params["w2"][...] = [[0.25]]
    net.sync_target()
    batch = columns([(0, 0, 1.0, 1, True)], 1, 0.99)
    loss = net.loss_and_grads(batch)[0]
    net.train_on(batch)
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
        net.train_on(columns(batch, 2, 0.95))
    for k in net.PARAM_NAMES:
        assert np.array_equal(net.snapshot[k], snap_before[k])
        assert not np.array_equal(net.params[k], snap_before[k])
    net.sync_target()
    for k in net.PARAM_NAMES:
        assert np.array_equal(net.snapshot[k], net.params[k])
    assert net.train_steps == 100


def test_train_on_syncs_the_target_every_target_sync_steps():
    """The snapshot takes the live parameters right after train steps 3
    and 6, and stays frozen in between."""
    net = MlpQ(4, 2, hidden=6, learning_rate=0.05, target_sync=3, init_rng=np.random.default_rng(4))
    batch = columns([(0, 0, 1.0, 1, False), (1, 1, -0.5, 2, False), (2, 0, 0.3, 3, True)], 2, 0.95)
    synced = {k: v.copy() for k, v in net.snapshot.items()}
    for step in range(1, 8):
        net.train_on(batch)
        if step in (3, 6):
            synced = {k: v.copy() for k, v in net.params.items()}
        for k in net.PARAM_NAMES:
            assert np.array_equal(net.snapshot[k], synced[k])
            assert np.array_equal(net.snapshot[k], net.params[k]) == (step in (3, 6))
    with pytest.raises(ValueError, match="target_sync"):
        MlpQ(4, 2, target_sync=0)


def test_make_estimator_builds_every_backend_by_name():
    for backend in BACKENDS:
        vf = make_estimator(backend, 3, 2, 4, 0.1, 5, 7, np.random.default_rng(0))
        assert (vf.kind, vf.n_states, vf.n_choices, vf.n_goals) == (backend, 3, 2, 4)
        # values(row) is a list of n_choices floats, which eps_greedy takes.
        row = vf.values(5)
        assert type(row) is list and [type(v) for v in row] == [float, float]
    net = make_estimator("mlp", 3, 2, None, 0.1, 5, 7, np.random.default_rng(0))
    assert (net.hidden, net.target_sync, net.learning_rate) == (5, 7, 0.1)


def test_make_estimator_rejects_an_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        make_estimator("transformer", 3, 2, None, 0.1)


def test_loss_decreases_on_fixed_batch():
    gen = np.random.default_rng(5)
    net = MlpQ(4, 2, hidden=8, learning_rate=0.05, init_rng=gen)
    # Distinct (state, action) pairs so the targets are jointly fittable.
    batch = [
        (s, a, float(gen.normal()), 0, True) for s in range(4) for a in range(2)
    ]
    first = net.loss_and_grads(columns(batch, 2, 0.99))[0]
    last = 0.0
    for _ in range(1000):
        last = net.loss_and_grads(columns(batch, 2, 0.99))[0]
        net.train_on(columns(batch, 2, 0.99))
    assert last < first / 10


def test_train_on_returns_none_for_every_backend():
    """An update hands nothing back: the agent reads no loss from it."""
    batch = columns([(0, 1, 1.0, 2, False), (1, 0, 0.5, 0, True)], 2, 0.9)
    for backend in BACKENDS:
        vf = make_estimator(backend, 3, 2, None, 0.1, 4, 7, np.random.default_rng(0))
        before = [a.copy() for a in vf.arrays()]
        assert vf.train_on(batch) is None
        assert any(not np.array_equal(a, b) for a, b in zip(vf.arrays(), before))


# Two NaN-in-matmul RuntimeWarnings come before the DivergenceError it checks.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    net = MlpQ(3, 2, hidden=4, init_rng=np.random.default_rng(6))
    net.params["w2"][...] = np.inf
    with pytest.raises(DivergenceError):
        net.train_on(columns([(0, 0, 1.0, 1, True)], 2, 0.99))


def test_gradient_check_small():
    # The full 100-instance sweep runs in the acceptance suite.
    assert gradcheck_worst_rel_err(n_instances=10, seed=1) < 1e-4


def tuple_path_loss(net: MlpQ, batch, gamma: float) -> float:
    """The loss as the per-transition tuple path computed it."""
    total = 0.0
    for row, a, r, row_next, term in batch:
        nxt = onehot_forward(net.snapshot, onehot(net, [row_next]))[2][0]
        y = r + (0.0 if term else gamma * nxt.max())
        total += (net.values(row)[a] - y) ** 2
    return total / len(batch)


@pytest.mark.parametrize("n_goals", [None, 3])
def test_loss_on_columns_equals_tuple_path(n_goals):
    gen = np.random.default_rng(11)
    net = MlpQ(5, 4, n_goals=n_goals, hidden=6, init_rng=gen)
    for name in net.PARAM_NAMES:
        net.snapshot[name] = net.snapshot[name] + gen.normal(0.0, 0.3, net.snapshot[name].shape)

    def item():
        goal = () if n_goals is None else (int(gen.integers(n_goals)),)
        return (int(gen.integers(5)), *goal, int(gen.integers(4)), float(gen.normal()),
                int(gen.integers(5)), bool(gen.integers(2)))

    batch = [item() for _ in range(32)]
    if n_goals is not None:
        batch = goal_rows(batch, n_goals)
    assert net.loss_and_grads(columns(batch, 4, 0.9))[0] == pytest.approx(
        tuple_path_loss(net, batch, 0.9), rel=1e-12
    )
