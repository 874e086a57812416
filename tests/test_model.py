"""Decoder tests: initialization, recurrence math, fused-run/step agreement."""

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcap import autodiff as ad
from mlcap.gradcheck import gradient_check
from mlcap.model import (
    Dims,
    _block,
    advance_state,
    init_params,
    project_features,
    step_distribution,
    step_rows,
    zero_state,
)
from oracles import forward_sequence, log_softmax, lstm_step
from tinymodels import array_bytes, cast_params, prefix_free_params, random_params, wide_params


class TestDims:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="hidden"):
            Dims(vocab=5, embed=3, hidden=0, feature=2)

    @pytest.mark.parametrize("value", [4.0, True, np.int64(4), "4"], ids=["float", "bool", "numpy", "str"])
    def test_rejects_non_int(self, value):
        with pytest.raises(ValueError, match="dims.embed must be a positive int"):
            Dims(vocab=5, embed=value, hidden=4, feature=2)


class TestInit:
    def test_shapes_and_order(self):
        dims = Dims(vocab=7, embed=3, hidden=4, feature=5)
        p = init_params(dims, seed=0)
        shapes = {name: t.shape for name, t in p.named_parameters()}
        assert shapes == {
            "w_embed": (7, 3),
            "w_image": (5, 3),
            "b_image": (3,),
            "w_x": (3, 16),
            "w_h": (4, 16),
            "b_gates": (16,),
            "w_out": (4, 7),
            "b_out": (7,),
        }
        assert all(t.dtype == np.float64 and t.flags["C_CONTIGUOUS"] for _, t in p.named_parameters())

    def test_weight_range_and_bias_values(self):
        p = init_params(Dims(9, 6, 5, 4), seed=3)
        for name in ("w_embed", "w_image", "w_x", "w_h", "w_out"):
            assert np.abs(getattr(p, name)).max() <= 0.08
        npt.assert_array_equal(p.b_image, 0.0)
        npt.assert_array_equal(p.b_out, 0.0)
        h = 5
        npt.assert_array_equal(p.b_gates[h : 2 * h], 1.0)
        npt.assert_array_equal(p.b_gates[:h], 0.0)
        npt.assert_array_equal(p.b_gates[2 * h :], 0.0)

    def test_seed_determinism(self):
        dims = Dims(6, 3, 4, 2)
        a = init_params(dims, seed=11)
        b = init_params(dims, seed=11)
        c = init_params(dims, seed=12)
        npt.assert_array_equal(a.w_embed, b.w_embed)
        assert not np.array_equal(a.w_embed, c.w_embed)


class TestLstmStep:
    def test_matches_numpy_restatement(self):
        rng = np.random.default_rng(7)
        p = random_params(seed=7)
        x = rng.normal(size=(3, p.dims.embed))
        h, c = rng.normal(size=(3, p.dims.hidden)), rng.normal(size=(3, p.dims.hidden))
        new_h, new_c = advance_state(x, (h, c), p)
        h_ref, c_ref = lstm_step(x, h, c, p)
        npt.assert_allclose(new_h, h_ref, atol=1e-14)
        npt.assert_allclose(new_c, c_ref, atol=1e-14)

    def test_zero_params_give_zero_hidden_state(self):
        p = prefix_free_params(np.zeros(5))
        h, _ = advance_state(np.ones((1, p.dims.embed)), zero_state(p), p)
        assert h.shape == (1, p.dims.hidden)
        npt.assert_array_equal(h, 0.0)

    def test_embedding_dimension_mismatch(self):
        p = random_params()
        with pytest.raises(ValueError, match=re.escape("advance_state: input rows (2, 4) do not have width 3")):
            advance_state(np.zeros((2, p.dims.embed + 1)), zero_state(p, batch=2), p)

    def test_full_step_gradient_check(self):
        # the fused training run, read out through random weights so every
        # hidden coordinate of every step carries its own gradient
        rng = np.random.default_rng(9)
        p = wide_params(vocab=5, embed=3, hidden=3, feature=2, seed=9)
        batch, steps = 2, 3
        inputs = {
            "x": rng.normal(size=((steps + 1) * batch, 3)),
            "w_x": p.w_x,
            "w_h": p.w_h,
            "b_gates": p.b_gates,
        }
        readout = rng.normal(size=(steps * batch, 3))

        def loss():
            hs, pullback = ad.lstm_sequence(inputs["x"], batch, p.w_x, p.w_h, p.b_gates)
            return float((hs * readout).sum()), dict(zip(inputs, pullback(readout, inputs["x"])))

        assert gradient_check(loss, inputs) < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 8),
        steps=st.integers(1, 6),
        embed=st.integers(1, 5),
        hidden=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_run_equals_step_unroll(self, batch, steps, embed, hidden, seed):
        # a teacher-forced training row is the decode step's row, bit for bit,
        # except at batch 1, where the step's 1-row matmul rounds differently
        p = wide_params(vocab=4, embed=embed, hidden=hidden, feature=2, seed=seed % 1000, scale=1.0)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=((steps + 1) * batch, embed))
        fused, _ = ad.lstm_sequence(x, batch, p.w_x, p.w_h, p.b_gates)
        state = advance_state(x[:batch], zero_state(p, batch), p)
        for t in range(steps):
            state = advance_state(x[(t + 1) * batch : (t + 2) * batch], state, p)
            rows, (h, _) = fused[t * batch : (t + 1) * batch], state
            if batch == 1:
                npt.assert_allclose(rows, h, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(rows, h), (batch, t)

    def test_fused_run_rejects_ragged_steps(self):
        p = random_params()
        message = "lstm_sequence: shapes x (5, 3) in batches of 2, w_x (3, 16), w_h (4, 16), b_gates (16,) do not fit"
        with pytest.raises(ValueError, match=re.escape(message)):
            ad.lstm_sequence(np.zeros((5, p.dims.embed)), 2, p.w_x, p.w_h, p.b_gates)


class TestForwardSequence:
    def test_scored_step_count_and_row_sums(self):
        p = random_params(seed=4)
        ids = (4, 5, 2)
        trace = forward_sequence(np.ones(p.dims.feature), ids, 3, p)
        assert len(trace.distributions) == len(ids)
        for dist in trace.distributions:
            assert dist.shape == (p.dims.vocab,)
            npt.assert_allclose(dist.sum(), 1.0, atol=1e-12)
        assert trace.final_state[0].shape == (1, p.dims.hidden)

    def test_matches_step_rows_composition(self):
        p = random_params(seed=5)
        ids = (5, 4, 4, 2)
        feature = np.linspace(-1.0, 1.0, p.dims.feature)
        start = 3
        trace = forward_sequence(feature, ids, start, p)
        state = advance_state(project_features(feature[None, :], p), zero_state(p), p)
        composed = []
        for tok in (start,) + ids[:-1]:
            state, logp = step_rows(p.w_embed[[tok]], state, p)
            composed.append(np.exp(logp[0]))
        assert state[0].shape == (1, p.dims.hidden)
        for traced, stepped in zip(trace.distributions, composed):
            npt.assert_allclose(traced, stepped, atol=1e-12)
        npt.assert_allclose(trace.final_state[0], state[0], atol=1e-12)

    def test_rejects_empty_sequence(self):
        p = random_params()
        with pytest.raises(ValueError, match="eos"):
            forward_sequence(np.ones(p.dims.feature), (), 3, p)

    def test_rejects_bad_start_id(self):
        p = random_params()
        with pytest.raises(IndexError):
            forward_sequence(np.ones(p.dims.feature), (2,), p.dims.vocab, p)

    def test_leaves_parameters_untouched(self):
        p = random_params()
        before = array_bytes(p)
        forward_sequence(np.ones(p.dims.feature), (4, 2), 3, p)
        assert array_bytes(p) == before


class TestStepDistribution:
    def test_log_probabilities_normalize(self):
        p = random_params(seed=6)
        state, logp = step_distribution(zero_state(p), 3, p)
        npt.assert_allclose(np.exp(logp).sum(), 1.0, atol=1e-12)
        assert isinstance(logp, np.ndarray) and logp.shape == (p.dims.vocab,)
        assert state[0].shape == (1, p.dims.hidden)

    def test_prefix_free_model_ignores_input(self):
        scores = np.array([-50.0, 0.0, 1.0, 2.0, -3.0])
        p = prefix_free_params(scores)
        _, a = step_distribution(zero_state(p), 1, p)
        state, b = step_distribution(zero_state(p), np.ones(p.dims.feature), p)
        _, c = step_distribution(state, 4, p)
        npt.assert_array_equal(a, b)
        npt.assert_array_equal(a, c)
        npt.assert_allclose(a, log_softmax(scores), atol=1e-12)

    def test_rejects_out_of_range_token(self):
        p = random_params()
        with pytest.raises(IndexError):
            step_distribution(zero_state(p), p.dims.vocab, p)

    def test_rejects_bad_feature_shape(self):
        p = random_params()
        with pytest.raises(ValueError, match=re.escape("step_distribution: feature must be 1-D, got shape (2, 2)")):
            step_distribution(zero_state(p), np.ones((2, p.dims.feature)), p)


class TestStepRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_row_is_step_distribution_bit_for_bit(self, seed):
        p = wide_params(vocab=7, embed=3, hidden=4, feature=5, seed=seed)
        feature = np.random.default_rng(seed).normal(size=p.dims.feature)
        expected_state, expected = step_distribution(zero_state(p), feature, p)
        state, rows = step_rows(project_features(feature[None, :], p), zero_state(p), p)
        assert rows.shape == (1, p.dims.vocab)
        assert np.array_equal(rows[0], expected)
        assert all(map(np.array_equal, state, expected_state))
        for tok in range(p.dims.vocab):
            expected_next, expected = step_distribution(state, tok, p)
            after, rows = step_rows(p.w_embed[[tok]], state, p)
            assert np.array_equal(rows[0], expected)
            assert all(map(np.array_equal, after, expected_next))

    @pytest.mark.parametrize("vocab, width", [(23, 64), (1000, 128)], ids=["desk", "larger"])
    def test_rows_do_not_depend_on_block_height_or_position(self, vocab, width):
        # decoding cuts images and hypotheses into blocks of any height, a lone row
        # included, so a row must get the same bits wherever it sits. A 1-row
        # matmul would take another BLAS path and may round differently, so both
        # functions run a lone row as a 2-row block.
        p = init_params(Dims(vocab, width, width, 2 * width), 0)
        rng = np.random.default_rng(vocab)
        n = 300
        x = rng.normal(size=(n, width))
        features = rng.normal(size=(n, p.dims.feature))
        h, c = rng.normal(size=(n, width)), rng.normal(size=(n, width))
        (whole_h, whole_c), whole = step_rows(x, (h, c), p)
        projected = project_features(features, p)
        for height in range(1, n + 1):
            start = int(rng.integers(0, n - height + 1))
            rows = slice(start, start + height)
            (part_h, part_c), part = step_rows(x[rows], (h[rows], c[rows]), p)
            assert np.array_equal(project_features(features[rows], p), projected[rows]), (height, start)
            assert np.array_equal(part, whole[rows]), (height, start)
            assert np.array_equal(part_h, whole_h[rows]), (height, start)
            assert np.array_equal(part_c, whole_c[rows]), (height, start)

    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        shift=st.sampled_from([0.0, 100.0]),
        big=st.lists(st.sampled_from([0.0, 0.0, 1e9, -1e9]), min_size=7, max_size=7),
    )
    def test_rows_are_the_oracle_log_softmax_bit_for_bit(self, height, seed, shift, big):
        # the head normalises in place, in log_softmax's order of operations
        p = wide_params(vocab=7, embed=3, hidden=4, feature=5, seed=seed, scale=2.0)
        p.b_out += shift + np.array(big)
        rng = np.random.default_rng(seed)
        x, h, c = (rng.normal(size=(height, n)) for n in (3, 4, 4))
        (new_h, _), rows = step_rows(x, (h, c), p)
        want = log_softmax(_block(new_h) @ p.w_out + p.b_out)[:height]
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()

    def test_rows_normalize(self):
        p = random_params(seed=6)
        state, rows = step_rows(p.w_embed[[3, 4, 5]], zero_state(p, 3), p)
        assert rows.shape == (3, p.dims.vocab) and state[0].shape == (3, p.dims.hidden)
        npt.assert_allclose(np.exp(rows).sum(axis=1), 1.0, atol=1e-12)


class TestFloat32Parameters:
    def test_decode_steps_run_in_the_parameters_dtype(self):
        # float32 parameters give a float32 start state, image rows, state and
        # log-probabilities from float64 features, the log-probabilities within 1e-5 of float64's
        p = init_params(Dims(300, 32, 32, 64), 8)
        features = np.random.default_rng(8).normal(size=(5, p.dims.feature))

        def first_steps(params):
            start = zero_state(params, len(features))
            image = project_features(features, params)
            state = advance_state(image, start, params)
            new, logp = step_rows(params.w_embed[[3, 4, 5, 6, 7]], state, params)
            return (*start, image, *state, *new, logp)

        single = first_steps(cast_params(p, np.float32))
        assert [a.dtype for a in single] == [np.dtype(np.float32)] * len(single)
        assert np.abs(single[-1] - first_steps(p)[-1]).max() <= 1e-5
