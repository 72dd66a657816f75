import numpy as np
import pytest

from hdqn import rng


def test_same_pair_same_sequence():
    a = rng.stream(123, rng.ENV).random(50)
    b = rng.stream(123, rng.ENV).random(50)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    a = rng.stream(123, rng.ENV).random(50)
    b = rng.stream(123, rng.CONTROLLER).random(50)
    assert not np.array_equal(a, b)


def test_seeds_are_distinct():
    a = rng.stream(1, rng.ENV).random(50)
    b = rng.stream(2, rng.ENV).random(50)
    assert not np.array_equal(a, b)


def test_stream_ids_unique():
    ids = [rng.ENV, rng.CONTROLLER, rng.META, rng.REPLAY_D1, rng.REPLAY_D2, rng.INIT, rng.EVAL]
    assert len(set(ids)) == len(ids)


def test_rejects_bad_seed():
    for open_key in (rng.stream, rng.draws):
        with pytest.raises(ValueError):
            open_key(-1, rng.ENV)
        with pytest.raises(ValueError):
            open_key(2**64, rng.ENV)
        with pytest.raises(ValueError):
            open_key(0, -1)


# 2**31 + 1 rejects about half its 32-bit words; 2**32 takes them whole.
BOUNDS = (1, 2, 3, 4, 6, 2**31 + 1, 2**32)


def test_draws_equal_the_generators_scalar_calls():
    """Interleaved random() and integers(n) calls return the Generator's
    values, as float and int, over several blocks, including refills
    that fall while a high half-word is carried."""
    fast, gen = rng.draws(11, rng.CONTROLLER, 2), rng.stream(11, rng.CONTROLLER, 2)
    calls = refills_mid_carry = 0
    while calls < 5 * rng.BLOCK:
        for n in BOUNDS:
            for _ in range(calls % 3):  # 0-2 uniforms between bounded draws
                refills_mid_carry += fast._pos == rng.BLOCK and fast._half is not None
                a, b = fast.random(), gen.random()
                assert a == b and type(a) is type(b) is float
            refills_mid_carry += fast._pos == rng.BLOCK and fast._half is not None
            a, b = fast.integers(n), int(gen.integers(n))
            assert a == b and type(a) is type(b) is int
            calls += 1
    assert refills_mid_carry >= 1


@pytest.mark.parametrize("n", [0, 2**32 + 1])
def test_draws_reject_a_bound_outside_the_32_bit_path(n):
    with pytest.raises(ValueError):
        rng.draws(0, rng.ENV).integers(n)
