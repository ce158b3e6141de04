"""Deterministic, splittable random streams.

Every stochastic draw in the package comes from a stream derived from a
base seed plus a tuple of labels (strings or integers), hashed into a
Philox counter-based generator key.  Two runs with the same seed and the
same labels produce bit-identical draws regardless of call order, which
is what makes training logs and sampled outputs byte-reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _key(seed: int, labels: tuple) -> np.ndarray:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"\x1f")
        if isinstance(label, (int, np.integer)):
            h.update(b"i" + str(int(label)).encode())
        else:
            h.update(b"s" + str(label).encode())
    digest = h.digest()
    return np.frombuffer(digest, dtype=np.uint64)


class _KeySeed(ISeedSequence):
    """A Philox key handed over as the seed sequence's whole state.

    ``Philox(key=...)`` would first build a ``SeedSequence`` from OS
    entropy and then discard it; Philox asks its seed sequence for
    exactly the two 64-bit key words, so this gives the same state (the
    key, a zero counter) without that draw.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


class RngStream:
    """A named random stream that can derive child streams.

    ``RngStream(7, "train").child("noise", step)`` always denotes the
    same underlying sequence, independent of what else was drawn.
    """

    def __init__(self, seed: int, *labels):
        self.seed = int(seed)
        self.labels = tuple(labels)

    def child(self, *labels) -> "RngStream":
        return RngStream(self.seed, *(self.labels + labels))

    def generator(self) -> np.random.Generator:
        """A fresh generator for the (seed, labels...) stream."""
        return np.random.Generator(np.random.Philox(_KeySeed(_key(self.seed, self.labels))))

    def normal(self, shape) -> np.ndarray:
        return self.generator().standard_normal(shape)

    def uniform(self, shape) -> np.ndarray:
        return self.generator().random(shape)

    def integers(self, low, high) -> np.integer:
        return self.generator().integers(low, high)
