"""Named rng substreams: seed checks and stream independence."""

import numpy as np
import pytest

from mlcap.rng import STREAMS, substream


def draws(gen):
    return gen.integers(0, 2**32, size=4).tolist()


def test_numpy_integer_seed_gives_the_int_stream():
    assert draws(substream(np.int64(7), "init")) == draws(substream(7, "init"))


def test_streams_of_one_seed_differ():
    assert len({tuple(draws(substream(7, name))) for name in STREAMS}) == len(STREAMS)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, np.bool_(True), "7", None])
def test_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(ValueError, match=f"seed must be an int >= 0, got {seed!r}"):
        substream(seed, "init")


def test_unknown_stream_rejected():
    with pytest.raises(ValueError, match="unknown rng stream"):
        substream(7, "dropout")
