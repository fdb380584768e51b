import random

import numpy as np
import pytest

from wavecore import rng as rng_module
from wavecore.rng import keyed_rng, keyed_streams, stream_key

KEYS = [0, 2**64 - 1, 2**127 + 1] + [random.Random(20261018).getrandbits(128) for _ in range(50)]


def same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def assert_same_stream(got, expected):
    assert same_state(got.bit_generator.state, expected.bit_generator.state)
    assert np.array_equal(got.standard_normal(1000), expected.standard_normal(1000))
    assert same_state(got.bit_generator.state, expected.bit_generator.state)


@pytest.mark.parametrize("key", KEYS)
def test_stream_equals_philox_keyed_directly(key, monkeypatch):
    # the key is the digest's first 16 bytes, little-endian
    monkeypatch.setattr(rng_module, "_digest", lambda seed, labels: key.to_bytes(32, "little"))
    assert_same_stream(keyed_rng(0), np.random.Generator(np.random.Philox(key=key)))


@pytest.mark.parametrize("seed", [0, 1, 59, -3, 2**40])
def test_derived_keys_unchanged(seed):
    parts = (seed, "mvm", 2, 7, "w+/out")
    assert_same_stream(keyed_rng(*parts), np.random.Generator(np.random.Philox(key=stream_key(*parts))))


@pytest.fixture
def no_os_entropy(monkeypatch):
    # numpy draws a SeedSequence's entropy through this name; Philox(key=...) calls it
    def no_entropy(*args, **kwargs):
        raise AssertionError("a keyed stream must not read OS entropy")

    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)


def test_reads_no_os_entropy(no_os_entropy):
    keyed_rng(3, "mvm", 0, 0, "in").standard_normal(4)


SEEDS = [0, 1, 2, -1, -2**70, 2**63 - 1, 2**63, 2**64 + 5, 2**100]


@pytest.mark.parametrize(
    "parts", [("mvm", 0, 0, "in"), ("mvm", 3, 124, "w-/out"), ("mvm", -1, 2**63, "wß/ëλ"), ()]
)
def test_each_stream_equals_keyed_rng(parts, no_os_entropy):
    for seed, gen in zip(SEEDS, keyed_streams(SEEDS, *parts), strict=True):
        assert_same_stream(gen, keyed_rng(seed, *parts))


def leave_mid_buffer(gen):
    # a Philox draws 64-bit words four at a time; stop with some left in the buffer
    gen.bit_generator.random_raw()
    if gen.bit_generator.state["buffer_pos"] == 4:
        gen.bit_generator.random_raw()
    assert gen.bit_generator.state["buffer_pos"] < 4


def leave_half_word(gen):
    # an odd count of 32-bit draws leaves half a 64-bit word cached in the bit generator
    gen.integers(0, 2, size=3 - gen.bit_generator.state["has_uint32"], dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("leave", [leave_mid_buffer, leave_half_word])
def test_rekey_starts_fresh_however_the_last_stream_was_left(leave):
    streams = keyed_streams([5, 6, 5, 2**70], "mvm", 1, 2, "w-")
    gen = next(streams)
    for seed in (6, 5, 2**70):
        leave(gen)
        gen = next(streams)
        assert_same_stream(gen, keyed_rng(seed, "mvm", 1, 2, "w-"))


def test_interleaved_iterators_keep_their_own_streams():
    seeds = [3, 4, 3, 9]
    a = keyed_streams(seeds, "mvm", 0, 0, "in")
    b = keyed_streams(seeds, "mvm", 0, 0, "w+")
    for seed in seeds:
        gen_a = next(a)
        gen_a.standard_normal(7)
        gen_b = next(b)
        assert_same_stream(gen_b, keyed_rng(seed, "mvm", 0, 0, "w+"))
        expected = keyed_rng(seed, "mvm", 0, 0, "in")
        expected.standard_normal(7)
        assert_same_stream(gen_a, expected)


def test_derives_no_key_before_an_item_is_taken():
    taken = []

    def seeds():
        for seed in range(3):
            taken.append(seed)
            yield seed

    streams = keyed_streams(seeds(), "mvm", 0, 0, "in")
    assert taken == []
    next(streams)
    assert taken == [0]


@pytest.mark.parametrize(
    "parts, key",
    [
        ((3, "mvm", 0, 0, "in"), 131694613136429817529099855201411826841),
        ((0, "synth-data"), 334503184017782546094105976626558821821),
        ((-7, "mvm", 2, 5, "w-/out"), 142602328627406031880342552802143282623),
    ],
)
def test_stream_keys_are_stable(parts, key):
    assert stream_key(*parts) == key
