"""Deterministic keyed random streams.

Every noise draw in the simulator comes from a counter-based generator whose
key is derived from (seed, context labels). Streams for different contexts
(layer, tile, role) are independent, and draws inside one stream happen in a
fixed row-major order, so results do not depend on evaluation order or on how
work is parallelized across columns, batch items or design points. The
simulator gives batch item ``b`` the streams of seed ``seed + b``, so a batch
draws exactly what one call per item would.

A generator is built from its 128-bit key alone: ``Philox(key=...)`` would
first build a ``SeedSequence`` from OS entropy and then discard it, so the key
is handed to ``Philox`` as a fixed-key seed sequence instead. The stream (key,
counter and buffer) is the same either way.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_WORD = (1 << 64) - 1


class _FixedKey(ISeedSequence):
    """Seed sequence that yields one fixed Philox key as two little-endian 64-bit words."""

    __slots__ = ("words",)

    def __init__(self, key: int) -> None:
        self.words = np.array([key & _WORD, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its key as generate_state(2, np.uint64)
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a fixed key yields 2 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def stream_key(seed: int, *parts: int | str) -> int:
    """Stable 128-bit key from a seed and context labels.

    Uses a hash of the canonical byte encoding, so keys are reproducible
    across processes and platforms (unlike the builtin ``hash``).
    """
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for part in parts:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b"\x00")
        else:
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest()[:16], "little")


def keyed_rng(seed: int, *parts: int | str) -> np.random.Generator:
    """Counter-based generator for the stream identified by (seed, *parts).

    Equal, state and draws, to ``Generator(Philox(key=stream_key(seed, *parts)))``.
    """
    return np.random.Generator(np.random.Philox(_FixedKey(stream_key(seed, *parts))))
