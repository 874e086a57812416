"""Named rng substreams: seed checks and stream independence; the library generators' one seed rule."""

import re

import numpy as np
import pytest

from mlcap.data import split_dataset, synth_generate
from mlcap.model import Dims, init_params
from mlcap.rng import STREAMS, generator, substream

# the library functions that draw randomness, each taking its generator through rng.generator
DRAWERS = {
    "init_params": lambda seed: init_params(Dims(4, 2, 2, 2), seed).w_embed,
    "split_dataset": lambda seed: split_dataset(list(range(6)), (3, 2, 1), seed).train,
    "synth_generate": lambda seed: [rec.feature for rec in synth_generate(2, seed, ["en"])],
}


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


def test_generator_passes_a_generator_through_and_seeds_one_from_an_int():
    gen = substream(7, "synth")
    assert generator(gen) is gen
    assert draws(generator(7)) == draws(np.random.default_rng(7))
    assert draws(generator(np.int64(7))) == draws(np.random.default_rng(7))


@pytest.mark.parametrize("name", DRAWERS)
def test_library_drawers_use_a_given_generator_as_it_is(name):
    # the draws are those of the int seed the generator was made from, and they advance it
    gen = np.random.default_rng(5)
    assert np.array_equal(np.asarray(DRAWERS[name](gen)), np.asarray(DRAWERS[name](5)))
    assert draws(gen) != draws(np.random.default_rng(5))


@pytest.mark.parametrize("seed", [-1, 2.5, True, "7", None], ids=["negative", "float", "bool", "str", "None"])
@pytest.mark.parametrize("name", DRAWERS)
def test_library_drawers_refuse_a_seed_that_is_not_an_int(name, seed):
    # each passed the seed straight to numpy: True and None drew, 2.5 and "7" raised TypeError
    with pytest.raises(ValueError, match=re.escape(f"seed must be an int >= 0, got {seed!r}")):
        DRAWERS[name](seed)
