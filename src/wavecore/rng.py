"""Deterministic keyed random streams.

Every noise draw in the simulator comes from a counter-based generator whose
key is derived from (seed, context labels). Streams for different contexts
(layer, tile, role) are independent, and draws inside one stream happen in a
fixed row-major order, so results do not depend on evaluation order or on how
work is parallelized across columns, batch items or design points. The
simulator gives batch item ``b`` the streams of seed ``seed + b``, so a batch
draws exactly what one call per item would.

A stream's key is the first 16 bytes of one SHA-256 over the seed, as a
signed 128-bit integer, and the labels, encoded once by ``_encode_labels``;
a seed outside ``SEED_MIN``..``SEED_MAX`` raises ValueError. A Philox stream
is built from its 128-bit key alone: ``Philox(key=...)`` would first build a
``SeedSequence`` from OS entropy and then discard it, so the key is handed to
``Philox`` as a fixed-key seed sequence instead. ``keyed_streams`` is the one path from
digest to generator, and it serves a batch: it builds one Philox for its
first seed and re-keys it for every later one by assigning its state (key,
zero counter, empty buffer), lazily, so an unused role derives no key. That
state is built once per iterator, and each later seed swaps in only its key.
Every stream (key, counter and buffer) is the same either way. ``keyed_rng``
is its first stream.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# a seed is hashed as a signed 128-bit integer
SEED_MIN, SEED_MAX = -2**127, 2**127 - 1
# a 128-bit key as Philox's two little-endian 64-bit key words
_KEY_WORDS = struct.Struct("<2Q")


class _FixedKey(ISeedSequence):
    """Seed sequence that yields one fixed Philox key as two little-endian 64-bit words."""

    __slots__ = ("words",)

    def __init__(self, words) -> None:
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its key as generate_state(2, np.uint64)
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a fixed key yields 2 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def _encode_labels(parts: tuple[int | str, ...]) -> bytes:
    """Canonical byte encoding of the context labels that follow the seed."""
    return b"".join([
        b"s" + part.encode("utf-8") + b"\x00" if isinstance(part, str)
        else b"i" + int(part).to_bytes(16, "little", signed=True)
        for part in parts
    ])


def _digest(seed: int, labels: bytes) -> bytes:
    try:
        return hashlib.sha256(int(seed).to_bytes(16, "little", signed=True) + labels).digest()
    except OverflowError:
        raise ValueError(f"seed must be an integer in [-2**127, 2**127 - 1], got {seed!r}") from None


def stream_key(seed: int, *parts: int | str) -> int:
    """Stable 128-bit key from a seed and context labels.

    Uses a hash of the canonical byte encoding, so keys are reproducible
    across processes and platforms (unlike the builtin ``hash``).
    """
    return int.from_bytes(_digest(seed, _encode_labels(parts))[:16], "little")


def keyed_rng(seed: int, *parts: int | str) -> np.random.Generator:
    """Counter-based generator for the stream identified by (seed, *parts).

    It is the first stream of ``keyed_streams((seed,), *parts)``, and equal,
    state and draws, to ``Generator(Philox(key=stream_key(seed, *parts)))``.
    """
    return next(keyed_streams((seed,), *parts))


def keyed_streams(seeds: Iterable[int], *parts: int | str) -> Iterator[np.random.Generator]:
    """Lazily yield the stream of (seed, *parts) for each seed in turn.

    Each yielded generator equals ``keyed_rng(seed, *parts)``, state and
    draws, but every yield is the same generator re-keyed, so it is valid only
    until the next one is taken. A seed's key is derived when its generator is
    taken, so an iterator that is never advanced hashes nothing. The state
    assigned on a re-key (zero counter, empty buffer, no cached half word) is
    one dict per iterator, of which each seed replaces only the key, so
    however the previous stream was left, the next one starts fresh.
    """
    labels = _encode_labels(parts)
    gen = None
    for seed in seeds:
        words = _KEY_WORDS.unpack_from(_digest(seed, labels))
        if gen is None:
            gen = np.random.Generator(np.random.Philox(_FixedKey(words)))
            bitgen = gen.bit_generator
            # the state of a fresh Philox, built once: each later seed swaps
            # in its key. Tuples, because the setter reads them element by
            # element faster than arrays.
            fresh = {"counter": (0, 0, 0, 0), "key": words}
            state = {
                "bit_generator": "Philox",
                "state": fresh,
                "buffer": (0, 0, 0, 0),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        else:
            fresh["key"] = words
            bitgen.state = state
        yield gen
