import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import stored
from hdqn import rng
from hdqn.replay import UNIFORM_BLOCK, ReplayBuffer
from reference_agent import Ring


def ring(capacity, k=32, seed=0):
    return ReplayBuffer(capacity, k, 1, rng.stream(seed, rng.REPLAY_D1))


def push_numbered(buf, i):
    """A transition whose every field encodes i."""
    buf.push(i, i + 3, float(i), 0.5 * (i % 2))


def test_push_grows_to_capacity_then_evicts_oldest():
    buf = ring(2)
    push_numbered(buf, 0)
    assert len(buf) == 1
    push_numbered(buf, 1)
    push_numbered(buf, 2)
    assert len(buf) == 2
    assert stored(buf)["cell"].tolist() == [1, 2]


@given(capacity=st.integers(1, 10), n=st.integers(0, 35))
@settings(max_examples=200)
def test_fifo_order_property(capacity, n):
    buf = ring(capacity)
    for i in range(n):
        push_numbered(buf, i)
    kept = np.arange(n)[-capacity:] if n else np.arange(0)
    rows = stored(buf)
    assert len(buf) == min(n, capacity)
    assert rows["cell"].tolist() == kept.tolist()
    assert rows["row_next"].tolist() == (kept + 3).tolist()
    assert rows["r"].tolist() == kept.astype(float).tolist()
    assert rows["disc"].tolist() == (0.5 * (kept % 2)).tolist()


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ring(0)


@pytest.mark.parametrize("k", [0, -1])
def test_minibatch_size_must_be_positive(k):
    with pytest.raises(ValueError, match="minibatch size"):
        ring(4, k)


def test_warmup_must_lie_between_one_and_the_capacity():
    """A ring owns its warm-up: one below 1 would train from an empty
    ring, and one above the capacity is never reached."""
    gen = rng.stream(0, rng.REPLAY_D1)
    for warmup in (0, -1, 11):
        with pytest.raises(ValueError, match="warm-up"):
            ReplayBuffer(10, 4, warmup, gen)
    for warmup in (1, 10):
        assert ReplayBuffer(10, 4, warmup, gen).warmup == warmup


def test_sample_with_replacement_from_singleton():
    buf = ring(5, k=3)
    buf.push(4, 3, 0.5, 0.0)
    cell, row_next, r, disc = buf.sample()
    assert cell.tolist() == [4] * 3 and row_next.tolist() == [3] * 3
    assert r.tolist() == [0.5] * 3 and disc.tolist() == [0.0] * 3


def test_sample_is_deterministic_given_seed():
    def draws():
        buf = ring(10, seed=4)
        for i in range(10):
            push_numbered(buf, i)
        return [buf.sample()[0].tolist() for _ in range(200)]

    assert draws() == draws()


def test_sample_leaves_buffer_unchanged():
    buf = ring(4, k=16)
    for i in range(6):
        push_numbered(buf, i)
    before = {k: v.copy() for k, v in stored(buf).items()}
    for _ in range(10):
        buf.sample()
    after = stored(buf)
    assert len(buf) == 4
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_sample_errors():
    buf = ring(4, k=1)
    with pytest.raises(ValueError):
        buf.sample()


def test_sampling_uniformity_chi_square():
    """100k draws from a 10-element buffer look uniform at p > 0.01,
    drawn both as one large minibatch and as many small ones. The two
    rings share one stream, so the small draws take the uniforms after
    the large one's."""
    gen = rng.stream(0, rng.REPLAY_D1)
    large_ring, small_ring = ReplayBuffer(10, 100_000, 1, gen), ReplayBuffer(10, 32, 1, gen)
    for i in range(10):
        push_numbered(large_ring, i)
        push_numbered(small_ring, i)
    large = large_ring.sample()[0]
    small = np.concatenate([small_ring.sample()[0] for _ in range(3125)])
    for draws in (large, small):
        counts = np.bincount(draws, minlength=10)
        assert counts.sum() == 100_000
        p = stats.chisquare(counts).pvalue
        assert p > 0.01, f"uniformity rejected: p={p}"


@given(
    growth=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    k=st.integers(1, 97),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_draws_in_range_and_uniform_while_growing(growth, k, seed):
    """Uniforms drawn in blocks while the ring was smaller still cover the
    whole current fill: each stage's draws are uniform over its rows.

    The examples are derandomized: a uniform sampler reads p < 1e-6 in one
    stage of about a million, so a fresh search on every run would, now
    and then, find such a stage on correct code (growth [31, 22, 37, 4],
    k 22, seed 3908 reads p = 8.7e-7). A fixed set of examples passes or
    fails with the sampler, not with the search."""
    buf = ring(1000, k, seed=seed)
    n = 0
    for grow in growth:
        for _ in range(grow):
            push_numbered(buf, n)
            n += 1
        batches = -(-60 * n // k)  # at least 60 expected draws per row
        draws = np.concatenate([buf.sample()[0] for _ in range(batches)])
        assert 0 <= draws.min() and draws.max() < n
        if n > 1:
            assert stats.chisquare(np.bincount(draws, minlength=n)).pvalue > 1e-6


def test_block_larger_than_minibatch_is_consumed_in_order():
    """A block serves UNIFORM_BLOCK // k minibatches before the next draw."""
    gen_copy = rng.stream(0, rng.REPLAY_D1)
    buf = ring(UNIFORM_BLOCK, k=64)
    for i in range(UNIFORM_BLOCK):
        push_numbered(buf, i)
    first = np.concatenate([buf.sample()[0] for _ in range(UNIFORM_BLOCK // 64)])
    expected = (gen_copy.random(UNIFORM_BLOCK) * UNIFORM_BLOCK).astype(np.intp)
    assert first.tolist() == expected.tolist()


def test_sample_indices_are_the_scaled_uniforms_while_growing():
    """Minibatch i's indices are its uniforms times the fill at that
    moment, truncated to intp, across block refills and while the ring
    grows, for each of three ring sizes k."""
    for k in (1, 7, 32):
        gen_copy = rng.stream(3, rng.REPLAY_D1)
        buf = ring(5000, k, seed=3)
        u, pos, n, refills = np.empty(0), 0, 0, 0
        for grow in (1, 2, 5, 40, 300, 1000):
            for _ in range(grow):
                push_numbered(buf, n)
                n += 1
            for _ in range(UNIFORM_BLOCK // (2 * k) + 1):
                if pos + k > u.size:
                    u, pos = gen_copy.random(UNIFORM_BLOCK), 0
                    refills += 1
                want = (u[pos : pos + k] * n).astype(np.intp)
                pos += k
                assert buf.sample()[0].tolist() == want.tolist()
        assert refills >= 3


@given(
    capacity=st.sampled_from([1, 5, 40, 130, 1000]),
    k=st.sampled_from([1, 7, 32]),
    segments=st.lists(
        st.tuples(
            st.integers(1, 300),
            # chances of 0, 1 and 2 pushes before a call
            st.sampled_from(
                [(0, 1, 0), (0.01, 0.98, 0.01), (0.15, 0.7, 0.15), (0, 0, 1), (0.5, 0, 0.5), (1, 0, 0)]
            ),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
# A block gathered on the pattern at the second refill (call 128), then
# no pushes up to the next refill, which drops it one push after it was
# gathered. The next call, with no push, is row 1 of the new block and
# one push after the dropped block's start: a ring that kept the dropped
# block would serve that block's row 1.
@example(capacity=1000, k=32, segments=[(129, (0, 1, 0)), (127, (1, 0, 0)), (1, (0, 1, 0)), (5, (1, 0, 0))], seed=0)
@settings(max_examples=40, deadline=None)
def test_every_minibatch_is_the_direct_rule_on_the_live_ring(capacity, k, segments, seed):
    """Random interleavings of 0, 1 or 2 pushes before each sample, runs
    of one push each (the pattern that gathers whole blocks), runs of
    none and rings that wrap inside a block, on a ring of one k: every minibatch equals
    floor(u * fill) over the next k uniforms, read from a plain list ring
    as it is at that call, with cell and row' as intp."""
    buf = ring(capacity, k, seed)
    ref = Ring(capacity, rng.stream(seed, rng.REPLAY_D1))
    pushes = np.random.default_rng(seed)
    n = 0
    for calls, chances in segments:
        for _ in range(calls):
            for _ in range(max(pushes.choice(3, p=chances), n == 0)):
                row = (n * 7 % 1000, n % 333, float(n), 0.5 * (n % 3))
                buf.push(*row)
                ref.push(row)
                n += 1
            got = buf.sample()
            want = list(zip(*ref.sample(k)))
            assert got[0].dtype == got[1].dtype == np.intp
            assert [c.tolist() for c in got] == [list(c) for c in want]


def test_a_held_block_is_not_served_after_two_pushes():
    """The ring's first refill gathers a block for one push per call. Two
    pushes before the next call at the block's k break that pattern, so
    the call gathers its minibatch from the live ring again, though the
    block's next row is unmarked: its uniforms are the block's second k,
    scaled by the fill after both pushes, not after one."""
    buf = ring(1000, k=32, seed=6)
    ref = Ring(1000, rng.stream(6, rng.REPLAY_D1))

    def push(i):
        push_numbered(buf, i)
        ref.push((i, i + 3, float(i), 0.5 * (i % 2)))

    def sample():
        got = buf.sample()
        assert [c.tolist() for c in got] == [list(c) for c in zip(*ref.sample(32))]
        return got

    for i in range(500):
        push(i)
    first = sample()  # the first refill
    assert first is buf._block[0]  # a block is held
    assert buf._block[1] is not None
    push(500)
    push(501)
    got = sample()
    assert not any(got is batch for batch in buf._block)


@pytest.mark.parametrize(
    "samples_per_push, gathered",
    # 7 refills at k = 32, after 50 pushes of warm-up.
    [(1, 7), (3, 1)],
    ids=["controller", "meta"],
)
def test_blocks_are_gathered_while_the_pattern_holds(monkeypatch, samples_per_push, gathered):
    """One push before each sample, the controller's pattern, gathers a
    block at every refill, the first included. One push per three
    samples, the meta memory's pattern on chain, gathers one at the
    first refill only: the call at that block's end is off its pattern,
    so the refill drops the block, and no block is gathered again."""
    blocks = []
    gather_block = ReplayBuffer._gather_block

    def counted(buf):
        blocks.append(buf.k)
        return gather_block(buf)

    monkeypatch.setattr(ReplayBuffer, "_gather_block", counted)
    buf = ring(100_000)
    for n in range(50):
        push_numbered(buf, n)
    for call in range(7 * UNIFORM_BLOCK // 32):
        if call % samples_per_push == 0:
            n += 1
            push_numbered(buf, n)
        buf.sample()
    assert blocks == [32] * gathered


def test_held_minibatches_never_change():
    """A minibatch a caller holds keeps its values through later pushes,
    later samples and block refills, while the ring wraps. The pattern is
    the controller's, one push before each sample, with a few calls off
    it, so both whole-block and per-call minibatches are held."""
    buf = ring(1100)
    for i in range(1000):
        push_numbered(buf, i)
    held = []
    for i in range(1000, 1000 + 3 * UNIFORM_BLOCK // 32):
        for _ in range(2 if i % 50 == 0 else 1):
            push_numbered(buf, i)
        batch = buf.sample()
        held.append((batch, [c.copy() for c in batch]))
    assert buf.cursor < 1000  # wrapped
    for batch, copy in held:
        assert all(np.array_equal(a, b) for a, b in zip(batch, copy))
    # A minibatch served from a gathered block is a row of a (blocks, k)
    # array; one gathered for its own call owns its data.
    from_blocks = sum(batch[2].base is not None for batch, _ in held)
    assert 0 < from_blocks < len(held)


def test_sample_columns_are_intp_and_the_ring_stays_int32():
    buf = ring(10, k=7)
    for i in range(10):
        push_numbered(buf, i)
        cell, row_next, r, disc = buf.sample()
        assert (cell.dtype, row_next.dtype, r.dtype, disc.dtype) == (np.intp, np.intp, np.float64, np.float64)
    assert buf.cell.dtype == buf.row_next.dtype == np.int32


def test_disjoint_buffers_share_nothing():
    d1 = ring(3)
    d2 = ring(3)
    d1.push(1, 2, 1.0, 0.9)
    assert len(d2) == 0
    d2.push(0, 2, 0.5, 0.0)
    assert len(d1) == 1
    assert stored(d1)["cell"].tolist() == [1]
    assert stored(d2)["r"].tolist() == [0.5]
    for name in ("cell", "row_next", "r", "disc"):
        assert not np.shares_memory(getattr(d1, name), getattr(d2, name))

