"""Beam search against hand-enumerated cases, greedy, and full enumeration."""

import math
import re
from typing import NamedTuple
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcap import beam, model, trainer
from mlcap.beam import BeamConfig, _barred_ids, _top, beam_block, beam_search
from mlcap.model import ModelParams
from mlcap.vocab import EOS_ID, PAD_ID, build_vocab
from oracles import (
    decode_start,
    decode_step,
    emittable_ids,
    exhaustive_decode,
    greedy_decode,
    per_image_top,
    reference_beam_search,
)
from tinymodels import NEG_BIG, cast_params, prefix_free_params, random_params, toy_distribution, traced_peak, wide_params

A, B = 3, 4  # surface ids in the toy five-token table (pad, unk, eos, a, b)


def replay_logprob(feature, start_id, params, ids):
    state, logp = decode_start(feature, start_id, params)
    total = 0.0
    for tok in ids:
        total = total + float(logp[tok])
        state, logp = decode_step(state, tok, params)
    return total


def one_image_block(feature, start_id, params, config):
    """``beam_block`` on a block of one image, the decoder ``decode_images`` runs."""
    return beam_block(feature[None], start_id, params, config)[0]


class ToyCases:
    """Hand cases on the prefix-independent p = (pad 0, unk 0, eos .2, a .5, b .3), decoded by ``decode``."""

    def setup_method(self):
        self.params = prefix_free_params(toy_distribution())
        self.feature = np.zeros(self.params.dims.feature)

    def test_width3_maxlen2_ranking(self):
        results = self.decode(self.feature, 1, self.params, BeamConfig(width=3, max_len=2))
        ids = [r[0] for r in results]
        assert ids == [[A, A], [EOS_ID], [A, B]]
        npt.assert_allclose(results[0][1], math.log(0.25), atol=1e-9)
        npt.assert_allclose(results[1][1], math.log(0.2), atol=1e-9)
        npt.assert_allclose(results[2][1], math.log(0.15), atol=1e-9)

    def test_maxlen_cap_finishes_without_eos(self):
        results = self.decode(self.feature, 1, self.params, BeamConfig(width=2, max_len=1))
        assert results[0][0] == [A]
        npt.assert_allclose(results[0][1], math.log(0.5), atol=1e-9)

    def test_equal_score_ties_prefer_smaller_id_tuple(self):
        # p(a) = p(b) makes [a] and [b] exact ties; a has the smaller id
        p = prefix_free_params([-1e9, -1e9, np.log(0.2), np.log(0.4), np.log(0.4)])
        results = self.decode(self.feature, 1, p, BeamConfig(width=2, max_len=1))
        assert [r[0] for r in results] == [[A], [B]]

    def test_finished_pool_rejoins_at_final_ranking(self):
        # eos dominates: the pool entry must still be ranked against later,
        # longer hypotheses rather than stopping the search
        p = prefix_free_params([-1e9, -1e9, np.log(0.9), np.log(0.06), np.log(0.04)])
        results = self.decode(self.feature, 1, p, BeamConfig(width=2, max_len=3))
        assert results[0][0] == [EOS_ID]
        assert results[1][0] == [A, EOS_ID]

    def test_length_norm_changes_ranking_only(self):
        plain = self.decode(self.feature, 1, self.params, BeamConfig(width=5, max_len=2))
        normed = self.decode(
            self.feature, 1, self.params, BeamConfig(width=5, max_len=2, length_norm=True)
        )
        assert [r[0] for r in plain[:2]] == [[A, A], [EOS_ID]]
        assert [r[0] for r in normed[:2]] == [[A, A], [A, B]]
        # scores stay raw sums either way
        npt.assert_allclose(normed[0][1], math.log(0.25), atol=1e-9)

    def test_unk_is_emittable_when_probable(self):
        p = prefix_free_params([-1e9, np.log(0.7), np.log(0.3), -1e9, -1e9])
        results = self.decode(self.feature, 2, p, BeamConfig(width=1, max_len=2))
        assert results[0][0] == [1, 1]

    def test_excluded_ids_never_emitted(self):
        config = BeamConfig(width=4, max_len=3, exclude_ids=(PAD_ID, A))
        for ids, _ in self.decode(self.feature, 1, self.params, config):
            assert A not in ids and PAD_ID not in ids

    def test_all_tied_candidates_keep_lexically_smallest(self):
        # a uniform model ties every candidate at every step, so the
        # partition cut must keep all of them for the id-tuple rule to pick
        p = prefix_free_params(np.zeros(5))
        results = self.decode(self.feature, 1, p, BeamConfig(width=3, max_len=1))
        assert [r[0] for r in results] == [[1], [EOS_ID], [A]]
        results = self.decode(self.feature, 1, p, BeamConfig(width=3, max_len=2))
        assert [r[0] for r in results] == [[EOS_ID], [1, 1], [1, EOS_ID]]

    def test_cross_parent_ties_follow_full_id_order(self):
        # [b] outranks [a] after one step, but the exact tie between [a, b]
        # and [b, a] must still go to the lexically smaller [a, b]
        p = prefix_free_params([-1e9, -1e9, np.log(0.1), np.log(0.3), np.log(0.6)])
        results = self.decode(self.feature, 1, p, BeamConfig(width=2, max_len=2))
        assert [r[0] for r in results] == [[B, B], [A, B]]

    def test_non_finite_logprobs_raise(self):
        p = prefix_free_params(toy_distribution())
        p.w_out[:] = np.nan
        with pytest.raises(ValueError, match="non-finite log-probabilities at decode step 1"):
            self.decode(self.feature, 1, p, BeamConfig(width=2, max_len=3))


class TestToyModel(ToyCases):
    """The hand cases on scalar ``beam_search``, and the config checks."""

    decode = staticmethod(beam_search)

    def test_eos_cannot_be_excluded(self):
        with pytest.raises(ValueError, match="eos"):
            BeamConfig(width=2, exclude_ids=(EOS_ID,))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BeamConfig(width=0)
        with pytest.raises(ValueError):
            BeamConfig(max_len=0)


@pytest.mark.parametrize("field, value", [("width", 2.5), ("max_len", 4.0), ("width", True), ("max_len", 0)])
def test_beam_config_counts_must_be_positive_ints(field, value):
    with pytest.raises(ValueError, match=re.escape(f"beam.{field} must be a positive int, got {value!r}")):
        BeamConfig(**{field: value})


@pytest.mark.parametrize("value", ["no", 1, None])
def test_beam_config_length_norm_must_be_a_bool(value):
    # "no" is truthy, so it ranked by the length-normalised score
    with pytest.raises(ValueError, match=re.escape(f"beam.length_norm must be true or false, got {value!r}")):
        BeamConfig(length_norm=value)


@pytest.mark.parametrize("entry", [2.5, "2", True, np.float64(2.0), None])
def test_beam_config_exclude_ids_must_be_ints(entry):
    # 2.5 and "2" barred eos through int(), True barred unk, and None raised TypeError only in the decode
    with pytest.raises(ValueError, match=re.escape(f"beam.exclude_ids must hold int ids, got {(PAD_ID, entry)!r}")):
        BeamConfig(exclude_ids=(PAD_ID, entry))


def test_beam_config_takes_numpy_integer_ids():
    assert _barred_ids(5, BeamConfig(exclude_ids=(np.int64(PAD_ID), np.int32(A))).exclude_ids).tolist() == [PAD_ID, A]


class TestToyModelBlock(ToyCases):
    """The hand cases on a one-image ``beam_block``."""

    decode = staticmethod(one_image_block)


class TestEmittableIds:
    """``_barred_ids`` bars exactly the ids the vocabulary loop does not emit."""

    @settings(max_examples=200, deadline=None)
    @given(vocab=st.integers(1, 12), exclude=st.lists(st.integers(-15, 20), max_size=16))
    def test_equals_the_vocabulary_loop(self, vocab, exclude):
        """Duplicate, negative and out-of-range exclusions included."""
        expected = emittable_ids(vocab, exclude)
        if not expected:
            with pytest.raises(ValueError, match="every token id is excluded"):
                _barred_ids(vocab, exclude)
        else:
            ids = _barred_ids(vocab, exclude)
            assert ids.dtype == np.int64 and ids.tolist() == sorted(set(range(vocab)) - set(expected))

    def test_minus_one_does_not_exclude_the_last_id(self):
        assert _barred_ids(4, (-1, 0, 4, 2**70)).tolist() == [0]


def draw_model(draw, vocab):
    """A random, flat (every candidate tied) or prefix-free model of ``vocab`` ids."""
    kind = draw(st.sampled_from(["random", "flat", "prefix-free"]))
    if kind == "prefix-free":
        # few distinct scores: exact ties between extensions of
        # different parents, e.g. [a, b] and [b, a], are common
        return prefix_free_params(draw(st.lists(st.sampled_from([0.0, -1.0, -2.0]), min_size=vocab, max_size=vocab)))
    params = wide_params(vocab=vocab, seed=draw(st.integers(0, 2**16)), scale=2.0)
    # shifting eos makes the rows or images of one block end on different steps or run to max_len
    params.b_out[EOS_ID] += draw(st.sampled_from([-1.0, 0.0, 1.0]))
    if kind == "flat":
        params.w_out = np.zeros_like(params.w_out)
        params.b_out = np.zeros_like(params.b_out)
    return params


class BlockCase(NamedTuple):
    params: ModelParams
    exclude: tuple[int, ...]  # ids barred from emission, eos never among them
    start: int
    features: np.ndarray  # [images, D]


@st.composite
def block_cases(draw, vocab=st.integers(3, 8), images=st.integers(1, 8)):
    """A ``draw_model`` model, its exclusions and start id, and a block of features to decode."""
    size = draw(vocab)
    params = draw_model(draw, size)
    exclude = draw(st.sets(st.sampled_from([t for t in range(size) if t != EOS_ID])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    features = rng.normal(scale=2.0, size=(draw(images), params.dims.feature))
    return BlockCase(params, tuple(sorted(exclude)), draw(st.integers(0, size - 1)), features)


class ReferenceCases:
    """``decode`` against greedy, full enumeration, replay and the tuple-sort reference.
    Hypothesis ties a ``@given`` test to one class, so each subclass wraps the property."""

    @pytest.mark.parametrize("seed", range(6))
    def test_width_one_equals_greedy(self, seed):
        params = random_params(vocab=6, embed=3, hidden=4, feature=2, seed=seed)
        rng = np.random.default_rng(100 + seed)
        feature = rng.normal(size=params.dims.feature)
        start = 3
        results = self.decode(feature, start, params, BeamConfig(width=1, max_len=4))
        greedy_ids, greedy_lp = greedy_decode(feature, start, params, max_len=4)
        assert results[0][0] == greedy_ids
        npt.assert_allclose(results[0][1], greedy_lp, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_saturated_width_equals_exhaustive(self, seed):
        params = random_params(vocab=4, embed=2, hidden=3, feature=2, seed=50 + seed)
        rng = np.random.default_rng(200 + seed)
        feature = rng.normal(size=params.dims.feature)
        start = 3
        max_len = 3
        width = params.dims.vocab**max_len
        beam_ids, beam_lp = self.decode(feature, start, params, BeamConfig(width=width, max_len=max_len))[0]
        exact_ids, exact_lp = exhaustive_decode(feature, start, params, max_len)
        assert beam_ids == exact_ids
        assert beam_lp == exact_lp

    @pytest.mark.parametrize("seed", range(4))
    def test_returned_logprob_replays_exactly(self, seed):
        params = random_params(vocab=7, embed=3, hidden=4, feature=3, seed=300 + seed)
        rng = np.random.default_rng(seed)
        feature = rng.normal(size=params.dims.feature)
        for ids, logprob in self.decode(feature, 3, params, BeamConfig(width=3, max_len=5)):
            npt.assert_allclose(replay_logprob(feature, 3, params, ids), logprob, atol=1e-12)

    # one image, from a model with its exclusions and start id, at a width and max_len
    ONE_IMAGE = dict(case=block_cases(images=st.just(1)), width=st.integers(1, 6), max_len=st.integers(1, 4))

    def matches_tuple_sort_reference(self, case, width, max_len):
        config = BeamConfig(width=width, max_len=max_len, exclude_ids=case.exclude)
        [feature] = case.features
        assert self.decode(feature, case.start, case.params, config) == reference_beam_search(feature, case.start, case.params, config)

    def test_decode_is_deterministic(self):
        params = random_params(seed=77)
        feature = np.linspace(-1, 1, params.dims.feature)
        first = self.decode(feature, 3, params, BeamConfig(width=3, max_len=6))
        second = self.decode(feature, 3, params, BeamConfig(width=3, max_len=6))
        assert first == second


class TestAgainstReferenceDecoders(ReferenceCases):
    """The reference checks on scalar ``beam_search``."""

    decode = staticmethod(beam_search)

    @settings(max_examples=150, deadline=None)
    @given(**ReferenceCases.ONE_IMAGE)
    def test_matches_tuple_sort_reference(self, case, width, max_len):
        self.matches_tuple_sort_reference(case, width, max_len)


class TestAgainstReferenceDecodersBlock(ReferenceCases):
    """The reference checks on a one-image ``beam_block``."""

    decode = staticmethod(one_image_block)

    @settings(max_examples=150, deadline=None)
    @given(**ReferenceCases.ONE_IMAGE)
    def test_matches_tuple_sort_reference(self, case, width, max_len):
        self.matches_tuple_sort_reference(case, width, max_len)


class TestTop:
    """``_top`` selects every image's survivors at once, as the one-image form does image by image."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_image_selection(self, data):
        heights = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6), label="rows per image")
        k = data.draw(st.integers(1, 6), label="K")
        width = data.draw(st.integers(1, 7), label="width")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        grid = rng.choice([0.0, -0.5, -1.0, -1.5, -2.0], size=data.draw(st.integers(1, 5), label="grid size"))
        candidates = rng.choice(grid, size=(sum(heights), k))  # a small grid: ties everywhere
        # barred ids are -inf columns among the emittable ones, never selected, even when width exceeds the rest
        barred = data.draw(st.sets(st.integers(0, k - 1), max_size=k - 1), label="barred columns")
        allowed = np.array([c for c in range(k) if c not in barred])
        candidates[:, sorted(barred)] = -np.inf
        # ended images leave gaps in the image ids; each image's rows are in lexical order of their ids
        image = np.repeat(np.cumsum(rng.integers(1, 4, size=len(heights))), heights)
        edges = np.concatenate([[0], np.cumsum(heights)])
        row, column = _top(candidates, image, width, allowed.size)
        expected_rows, expected_columns = [], []
        for lo, hi in zip(edges, edges[1:]):
            parent, col = per_image_top(candidates[lo:hi, allowed], np.arange(hi - lo), width)
            order = np.lexsort((col, parent))  # _top returns its cells in (row, column) order
            expected_rows.append(lo + parent[order])
            expected_columns.append(allowed[col[order]])
        npt.assert_array_equal(row, np.concatenate(expected_rows))
        npt.assert_array_equal(column, np.concatenate(expected_columns))


def width_one_ids(features, start, params, config):
    """Width-1 ``beam_block`` decodes of every row of ``features``, as id lists."""
    assert config.width == 1
    block = beam_block(features, start, params, config)
    assert all(len(ranked) == 1 for ranked in block)
    return [ranked[0][0] for ranked in block]


class TestGreedyBlock:
    """Width-1 ``beam_block`` decodes a block of rows greedily, row by row."""

    @staticmethod
    def assert_rows_match(features, start, params, config):
        block = width_one_ids(features, start, params, config)
        assert len(block) == len(features)
        for row, ids in zip(features, block):
            assert ids == reference_beam_search(row, start, params, config)[0][0]
            assert ids == greedy_decode(row, start, params, config.max_len, config.exclude_ids)[0]
        return block

    @settings(max_examples=150, deadline=None)
    @given(case=block_cases(), max_len=st.integers(1, 6))
    def test_rows_match_width_one_beam_and_greedy(self, case, max_len):
        config = BeamConfig(width=1, max_len=max_len, exclude_ids=case.exclude)
        self.assert_rows_match(case.features, case.start, case.params, config)

    def test_rows_end_on_different_steps(self):
        params = wide_params(vocab=6, embed=4, hidden=5, feature=3, seed=10, scale=2.0)
        params.b_out[EOS_ID] -= 1.0
        features = np.random.default_rng(10).normal(scale=2.0, size=(8, params.dims.feature))
        block = self.assert_rows_match(features, 3, params, BeamConfig(width=1, max_len=6))
        ended = [len(ids) for ids in block if ids[-1] == EOS_ID]
        capped = [ids for ids in block if ids[-1] != EOS_ID]
        assert len(set(ended)) >= 3 and [len(ids) for ids in capped] == [6]

    def test_huge_max_len_decodes_like_a_small_one(self):
        # memory follows the steps taken, not max_len: every row here ends at eos within 8 steps
        params = wide_params(vocab=6, embed=4, hidden=5, feature=3, seed=13, scale=2.0)
        features = np.random.default_rng(13).normal(scale=2.0, size=(8, params.dims.feature))
        small = width_one_ids(features, 3, params, BeamConfig(width=1, max_len=40))
        assert all(ids[-1] == EOS_ID for ids in small) and len({len(ids) for ids in small}) > 1
        assert width_one_ids(features, 3, params, BeamConfig(width=1, max_len=10**12)) == small

    def test_non_finite_logprobs_raise(self):
        params = random_params(seed=5)
        params.w_out[:] = np.nan
        with pytest.raises(ValueError, match="non-finite log-probabilities at decode step 1"):
            width_one_ids(np.ones((3, params.dims.feature)), 3, params, BeamConfig(width=1, max_len=4))

    def test_rejects_bad_features_and_start(self):
        params = random_params()
        config = BeamConfig(width=1, max_len=4)
        with pytest.raises(ValueError):
            width_one_ids(np.ones(params.dims.feature), 3, params, config)
        with pytest.raises(IndexError):
            width_one_ids(np.ones((2, params.dims.feature)), params.dims.vocab, params, config)


class TestBeamBlock:
    """``beam_block`` decodes a block of images as the reference beam decodes each alone."""

    @settings(max_examples=150, deadline=None)
    @given(case=block_cases(), width=st.integers(1, 6), max_len=st.integers(1, 4), length_norm=st.booleans())
    def test_images_match_scalar_and_reference_beams(self, case, width, max_len, length_norm):
        config = BeamConfig(width, max_len, case.exclude, length_norm)
        block = beam_block(case.features, case.start, case.params, config)
        assert len(block) == len(case.features)
        for feature, ranked in zip(case.features, block):
            assert ranked == reference_beam_search(feature, case.start, case.params, config)

    @settings(max_examples=40, deadline=None)
    @given(case=block_cases(vocab=st.integers(3, 5)), max_len=st.integers(1, 4))
    def test_saturated_width_equals_exhaustive(self, case, max_len):
        config = BeamConfig(width=case.params.dims.vocab**max_len, max_len=max_len, exclude_ids=case.exclude)
        for feature, ranked in zip(case.features, beam_block(case.features, case.start, case.params, config)):
            ids, logprob = exhaustive_decode(feature, case.start, case.params, max_len, config.exclude_ids)
            assert ranked[0] == (ids, logprob)

    def test_float32_parameters_score_in_float32(self):
        # every score is a float32 sum of float32 log-probabilities, and the
        # decodes are float64's, each score within 1e-5 of float64's
        params = wide_params(vocab=12, embed=6, hidden=6, feature=5, seed=17, scale=1.0)
        features = np.random.default_rng(17).normal(size=(6, params.dims.feature))
        config = BeamConfig(width=3, max_len=5)
        single = beam_block(features, 3, cast_params(params, np.float32), config)
        double = beam_block(features, 3, params, config)
        assert [[ids for ids, _ in ranked] for ranked in single] == [[ids for ids, _ in ranked] for ranked in double]
        scores = np.array([[logprob for _, logprob in ranked] for ranked in single])
        assert np.array_equal(scores.astype(np.float32), scores)
        npt.assert_allclose(scores, [[logprob for _, logprob in ranked] for ranked in double], rtol=0, atol=1e-5)

    VOCAB = build_vocab([("en", tuple("abcdef")), ("jp", ("x", "y", "z"))], min_count=1)

    @settings(max_examples=40, deadline=None)
    @given(
        case=block_cases(vocab=st.just(len(VOCAB))), width=st.integers(1, 6), max_len=st.integers(1, 4), rows_per_block=st.integers(2, 8)
    )
    def test_a_set_decodes_each_image_as_alone(self, case, width, max_len, rows_per_block):
        # decode_images bars the start ids and starts at <jp>: the case's exclusions and start go unused
        params, vocab = case.params, self.VOCAB
        with mock.patch.object(model, "BLOCK_CELLS", rows_per_block * len(vocab) * width):
            together = trainer.decode_images(params, vocab, case.features, "jp", width, max_len)
        alone = [trainer.decode_images(params, vocab, [feature], "jp", width, max_len)[0] for feature in case.features]
        assert together == alone

    @pytest.mark.parametrize(
        "log_weights, width, max_len",
        [
            (toy_distribution(), 3, 2),
            (np.zeros(5), 3, 2),  # every candidate tied at every step
            # [b] outranks [a], yet the exact tie between [a, b] and [b, a] goes to [a, b]
            ([-1e9, -1e9, np.log(0.1), np.log(0.3), np.log(0.6)], 2, 2),
            ([-1e9, -1e9, np.log(0.1), np.log(0.3), np.log(0.6)], 3, 3),
        ],
    )
    def test_cross_parent_ties_follow_full_id_order(self, log_weights, width, max_len):
        params = prefix_free_params(log_weights)
        config = BeamConfig(width=width, max_len=max_len)
        features = np.zeros((3, params.dims.feature))
        expected = reference_beam_search(features[0], 1, params, config)
        assert beam_block(features, 1, params, config) == [expected] * 3

    def test_images_finish_on_different_steps(self):
        params = wide_params(vocab=6, embed=4, hidden=5, feature=3, seed=10, scale=2.0)
        params.b_out[EOS_ID] -= 1.0
        features = np.random.default_rng(10).normal(scale=2.0, size=(8, params.dims.feature))
        config = BeamConfig(width=3, max_len=6)
        block = beam_block(features, 3, params, config)
        assert block == [reference_beam_search(feature, 3, params, config) for feature in features]
        assert len({len(ranked[0][0]) for ranked in block}) >= 3

    def test_non_finite_row_names_its_step(self):
        params = prefix_free_params(toy_distribution())
        features = np.zeros((4, params.dims.feature))
        features[2, 0] = np.nan  # one image is non-finite from its first step
        with pytest.raises(ValueError, match="non-finite log-probabilities at decode step 1"):
            beam_block(features, 1, params, BeamConfig(width=2, max_len=3))
        # a NaN embedding poisons each hypothesis that emits it one step later
        params = prefix_free_params(toy_distribution())
        params.w_embed[B] = np.nan
        with pytest.raises(ValueError, match="non-finite log-probabilities at decode step 2"):
            beam_block(np.zeros((3, params.dims.feature)), 1, params, BeamConfig(width=2, max_len=3))

    def test_rejects_bad_start(self):
        params = random_params()
        with pytest.raises(IndexError):
            beam_block(np.ones((2, params.dims.feature)), params.dims.vocab, params, BeamConfig(width=2, max_len=4))


class TestHeadCalls:
    """A block decode scores one distribution per selection round: the start
    step's, then one per token fed back. The image step advances the state only."""

    @staticmethod
    def count_heads(monkeypatch):
        calls = []
        step_rows = beam.step_rows
        monkeypatch.setattr(beam, "step_rows", lambda x, *rest: calls.append(len(x)) or step_rows(x, *rest))
        return calls

    @pytest.mark.parametrize("decode, width", [(beam_block, 1), (beam_block, 3)])
    def test_one_head_per_round(self, decode, width, monkeypatch):
        params = prefix_free_params(np.array([NEG_BIG, 0.0, NEG_BIG, 0.5, 0.2]))  # eos never wins
        calls = self.count_heads(monkeypatch)
        decoded = decode(np.ones((4, params.dims.feature)), 3, params, BeamConfig(width=width, max_len=5))
        assert len(decoded) == 4 and len(calls) == 5

    def test_greedy_rows_ending_early_take_no_extra_round(self, monkeypatch):
        params = wide_params(vocab=6, embed=4, hidden=5, feature=3, seed=10, scale=2.0)
        params.b_out[EOS_ID] -= 1.0
        features = np.random.default_rng(10).normal(scale=2.0, size=(8, params.dims.feature))
        calls = self.count_heads(monkeypatch)
        block = beam_block(features, 3, params, BeamConfig(width=1, max_len=6))
        assert len(calls) == max(len(ranked[0][0]) for ranked in block)


class TestWorkingSet:
    def test_a_block_holds_two_candidate_arrays_at_most(self):
        # a step holds the logits and exp's temporary, then the candidates and
        # _top's partition copy; never the previous step's candidates beside them
        images, width, vocab = 4, 5, 4000
        params = wide_params(vocab=vocab, embed=4, hidden=4, feature=3, seed=0)
        features = np.random.default_rng(0).normal(size=(images, 3))
        peak = traced_peak(lambda: beam_block(features, 3, params, BeamConfig(width=width, max_len=4)))
        assert peak < 2.5 * images * width * vocab * 8 + 2**17

    def test_float32_parameters_peak_at_most_six_tenths_of_float64(self):
        # the [rows,V] arrays set the peak, and each halves in float32
        params = random_params(vocab=2000, embed=32, hidden=32, feature=64, seed=1)
        single = cast_params(params, np.float32)
        features = np.random.default_rng(1).normal(size=(8, params.dims.feature))
        config = BeamConfig(width=5, max_len=4)
        peaks = [traced_peak(lambda: beam_block(features, 3, p, config)) for p in (single, params)]
        assert peaks[0] <= 0.6 * peaks[1], peaks


class TestExhaustive:
    def test_sequence_count_stays_bounded(self):
        params = prefix_free_params(toy_distribution())
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_decode(np.zeros(2), 1, params, max_len=9)

    def test_toy_model_argmax(self):
        params = prefix_free_params(toy_distribution())
        ids, logprob = exhaustive_decode(np.zeros(2), 1, params, max_len=2)
        assert ids == [A, A]
        npt.assert_allclose(logprob, math.log(0.25), atol=1e-9)
