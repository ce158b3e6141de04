"""Keyed random streams."""

import numpy as np
import numpy.testing as npt

from curvelang.rng import RngStream, _key


def _plain(state):
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


def test_generator_is_philox_at_the_stream_key():
    # the stream's generator is exactly Philox keyed by the label hash:
    # same key, zero counter, same buffer, so every draw is the same
    for seed, labels in [(0, ()), (7, ("train",)), (3, ("att", 1, 0)), (11, ("noise", 5, "x"))]:
        got = RngStream(seed, *labels).generator()
        want = np.random.Philox(key=_key(seed, labels))
        assert _plain(got.bit_generator.state) == _plain(want.state)
        npt.assert_array_equal(got.random(8), np.random.Generator(want).random(8))
