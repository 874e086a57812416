"""Hand-written gradient tests: the LSTM cell, the layers of the caption
loss's backward pass, their earlier forms, and finite differences."""

import gc
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcap import autodiff as ad
from mlcap import model, trainer
from mlcap.gradcheck import gradient_check
from mlcap.model import step_rows, zero_state
from mlcap.trainer import Batch, Example, make_batch, sequence_loss
from mlcap.vocab import EOS_ID, PAD_ID
from oracles import full_partial_head, gates_list_lstm_sequence, log_softmax, step_products_lstm_sequence, where_sigmoid
from tinymodels import array_bytes, cast_params, prefix_free_params, random_params, tiny_examples, wide_params


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ragged_batch(params, rng, count=3):
    return make_batch(tiny_examples(params, rng, count))


def restated_head(batch, params):
    """The summed loss's head restated on top of ``lstm_sequence``.

    Returns the hidden rows H, the logits gradient G = (softmax - onehot)
    with the padded rows zeroed, the token ids fed to the recurrence, and the gradient
    of its rows of input.
    """
    b = batch.start_ids.size
    ids = np.concatenate((batch.start_ids, batch.targets[:, :-1].T.ravel()))
    x = np.concatenate((batch.features @ params.w_image + params.b_image, params.w_embed[ids]))
    hs, pullback = ad.lstm_sequence(x, b, params.w_x, params.w_h, params.b_gates)
    g = softmax(hs @ params.w_out + params.b_out)
    targets = batch.targets.T.ravel()
    g[np.arange(targets.size), targets] -= 1.0
    g *= (targets != PAD_ID)[:, None]
    dx = pullback(g @ params.w_out.T, x)[0]
    return hs, g, ids, dx[b:]


class TestOps:
    def test_matmul_value_and_grads(self):
        # the head is one matmul over the stacked rows: dW = H^T G
        params = wide_params(vocab=7, embed=3, hidden=4, feature=2, seed=1)
        batch = ragged_batch(params, np.random.default_rng(1))
        hs, g, _, _ = restated_head(batch, params)
        _, grads = sequence_loss(batch, params, mode="sum")
        npt.assert_allclose(grads["w_out"], hs.T @ g, rtol=0, atol=1e-13)

    def test_add_bias_broadcasts_rows_only(self):
        # the output bias is added to every row, so its gradient sums G over rows
        params = wide_params(vocab=7, embed=3, hidden=4, feature=2, seed=2)
        batch = ragged_batch(params, np.random.default_rng(2))
        _, g, _, _ = restated_head(batch, params)
        _, grads = sequence_loss(batch, params, mode="sum")
        assert grads["b_out"].shape == (params.dims.vocab,)
        npt.assert_allclose(grads["b_out"], g.sum(axis=0), rtol=0, atol=1e-13)

    def test_sigmoid_tanh_values(self):
        # the cell applies sigmoid to the i|f|o blocks and tanh to the candidate,
        # writing the gates over the pre-activation
        z = np.array([[0.0, 1.0, -1.0, 0.5]])
        c_prev = np.array([[2.0]])
        sig = 1.0 / (1.0 + np.exp(-z[0, :3]))
        h, c = ad.lstm_cell(z, c_prev)
        npt.assert_allclose(z[0], np.append(sig, np.tanh(0.5)))
        npt.assert_allclose(c, sig[1] * 2.0 + sig[0] * np.tanh(0.5))
        npt.assert_allclose(h, sig[2] * np.tanh(c))

    def test_sigmoid_extreme_inputs_stay_finite(self):
        z = np.array([[-1e9, 1e9, -745.0, 745.0], [745.0, -745.0, 1e9, -1e9]])
        h, c = ad.lstm_cell(z, np.zeros((2, 1)))  # the gates are written over z
        assert np.isfinite(z).all() and np.isfinite(h).all() and np.isfinite(c).all()
        npt.assert_allclose(z, [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, -1.0]], atol=1e-300)

    def test_take_rows_gather_and_scatter_add(self):
        # every embedding row gets the sum of the input gradients of the
        # positions that read it; rows no position reads get zero
        params = wide_params(vocab=9, embed=3, hidden=4, feature=2, seed=3)
        f = np.ones(params.dims.feature)
        batch = make_batch([Example(f, 3, (5, 5, 4, EOS_ID)), Example(f, 4, (5, EOS_ID))])
        _, _, token_ids, dx_tokens = restated_head(batch, params)
        _, grads = sequence_loss(batch, params, mode="sum")
        for row in range(params.dims.vocab):
            expect = dx_tokens[token_ids == row].sum(axis=0)
            npt.assert_allclose(grads["w_embed"][row], expect, rtol=0, atol=1e-13)
        unread = sorted(set(range(params.dims.vocab)) - set(token_ids.tolist()))
        npt.assert_array_equal(grads["w_embed"][unread], 0.0)

    def test_scale_and_sum(self):
        # mean mode scales the summed loss and every gradient by 1 / tokens
        params = wide_params(vocab=7, embed=3, hidden=4, feature=2, seed=4)
        batch = ragged_batch(params, np.random.default_rng(4))
        mean, mean_grads = sequence_loss(batch, params, mode="mean")
        total, sum_grads = sequence_loss(batch, params, mode="sum")
        npt.assert_allclose(mean, total / batch.token_count, rtol=1e-14)
        for name, g in sum_grads.items():
            npt.assert_allclose(mean_grads[name], g / batch.token_count, rtol=0, atol=1e-15)


class TestBlockedHead:
    # three examples over three steps: 9 hidden rows; 2-row blocks give
    # heights 3, 2, 2, 2 (taller blocks first, so the last is ragged)
    def batch(self, params):
        f = np.linspace(-1.0, 1.0, params.dims.feature)
        return make_batch([Example(f, 3, (5, 4, EOS_ID)), Example(-f, 4, (6, EOS_ID)), Example(f, 3, (EOS_ID,))])

    def blocked(self, monkeypatch, params):
        monkeypatch.setattr(model, "BLOCK_CELLS", 2 * params.dims.vocab)
        heights = [s.stop - s.start for s in model.row_blocks(9, params.dims.vocab)]
        assert heights == [3, 2, 2, 2]

    @pytest.mark.parametrize("mode", ["mean", "sum"])
    def test_blocks_match_one_block(self, mode, monkeypatch):
        params = wide_params(vocab=7, embed=3, hidden=4, feature=2, seed=8)
        batch = self.batch(params)
        whole, whole_grads = sequence_loss(batch, params, mode)
        self.blocked(monkeypatch, params)
        loss, grads = sequence_loss(batch, params, mode)
        npt.assert_allclose(loss, whole, rtol=1e-12)
        for name, g in whole_grads.items():
            npt.assert_allclose(grads[name], g, rtol=1e-12, atol=1e-15, err_msg=name)

    def test_blocked_gradients_match_finite_differences(self, monkeypatch):
        params = wide_params(vocab=7, embed=3, hidden=4, feature=2, seed=9, scale=1.0)
        batch = self.batch(params)
        self.blocked(monkeypatch, params)
        f = lambda: sequence_loss(batch, params, mode="sum")
        assert gradient_check(f, dict(params.named_parameters())) < 1e-7

    def test_one_block_is_bit_identical_to_the_restated_head(self):
        params = wide_params(vocab=7, embed=3, hidden=4, feature=2, seed=10)
        batch = ragged_batch(params, np.random.default_rng(10), count=4)
        assert len(model.row_blocks(batch.targets.size, params.dims.vocab)) == 1
        hs, g, ids, dx_tokens = restated_head(batch, params)
        _, grads = sequence_loss(batch, params, mode="sum")
        dw_embed = np.zeros_like(params.w_embed)
        np.add.at(dw_embed, ids, dx_tokens)
        want = {"w_out": hs.T @ g, "b_out": g.sum(axis=0), "w_embed": dw_embed}
        assert array_bytes({name: grads[name] for name in want}) == array_bytes(want)


class TestStableSigmoid:
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf, np.nan]

    @staticmethod
    def assert_same_bits(x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad._stable_sigmoid(x, out=np.empty_like(x))
        want = where_sigmoid(x)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_edge_values_match_the_where_form(self):
        self.assert_same_bits(np.array(self.EDGES))

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGES), max_size=40),
        bits=st.lists(st.integers(0, 2**64 - 1), max_size=40),
    )
    def test_bits_match_the_where_form(self, values, bits):
        # floats of every magnitude, and arbitrary bit patterns (NaN payloads and subnormals included)
        self.assert_same_bits(np.array(values, dtype=np.float64))
        self.assert_same_bits(np.array(bits, dtype=np.uint64).view(np.float64))


class TestEarlierForms:
    """The recurrence and the head give the bytes of their earlier forms: the
    per-step gates list with stored ``tanh(c)``, restated in the coefficient
    arithmetic, and the whole [H,V] partial. The recurrence's gradients stay
    within rounding of its earlier arithmetic, the per-step products."""

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 8),
        steps=st.integers(1, 6),
        embed=st.integers(1, 8),
        hidden=st.integers(1, 8),
        pass_steps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lstm_sequence_bytes(self, batch, steps, embed, hidden, pass_steps, seed):
        # coefficient passes of pass_steps steps each, so runs cut into passes are covered
        p = wide_params(vocab=4, embed=embed, hidden=hidden, feature=2, seed=seed % 1000, scale=1.0)
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=2.0, size=((steps + 1) * batch, embed))
        g = rng.normal(size=(steps * batch, hidden))
        with mock.patch.object(ad, "PASS_CELLS", pass_steps * batch * hidden):
            hs, pullback = ad.lstm_sequence(x, batch, p.w_x, p.w_h, p.b_gates)
            got = dict(zip(("hidden", "dx", "dw_x", "dw_h", "db_gates"), (hs, *pullback(g, x))))
        want_hs, want_pullback = gates_list_lstm_sequence(x, batch, p.w_x, p.w_h, p.b_gates)
        assert array_bytes(got) == array_bytes(dict(zip(got, (want_hs, *want_pullback(g, x)))))

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 8),
        steps=st.integers(1, 6),
        embed=st.integers(1, 8),
        hidden=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lstm_sequence_gradients_stay_close_to_the_step_products(self, batch, steps, embed, hidden, seed):
        # the coefficients regroup each gate gradient's products, so every
        # gradient moves by rounding only: within 1e-12 of its largest entry;
        # the forward is the same arithmetic, bit for bit
        p = wide_params(vocab=4, embed=embed, hidden=hidden, feature=2, seed=seed % 1000, scale=1.0)
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=2.0, size=((steps + 1) * batch, embed))
        g = rng.normal(size=(steps * batch, hidden))
        hs, pullback = ad.lstm_sequence(x, batch, p.w_x, p.w_h, p.b_gates)
        want_hs, want_pullback = step_products_lstm_sequence(x, batch, p.w_x, p.w_h, p.b_gates)
        assert hs.tobytes() == want_hs.tobytes()
        for name, got, want in zip(("dx", "dw_x", "dw_h", "db_gates"), pullback(g, x), want_pullback(g, x)):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=name)

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 8),
        steps=st.integers(1, 6),
        hidden=st.integers(1, 8),
        vocab=st.integers(2, 9),
        block_rows=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    # 4 head blocks of 3, 3, 2, 2 rows; dw_out in chunks of 3, 2, 2 rows
    @example(batch=5, steps=2, hidden=7, vocab=6, block_rows=3, seed=1)
    def test_output_head_bytes(self, batch, steps, hidden, vocab, block_rows, seed):
        p = wide_params(vocab=vocab, embed=2, hidden=hidden, feature=2, seed=seed % 1000, scale=1.0)
        rng = np.random.default_rng(seed)
        n = steps * batch
        h = rng.normal(scale=2.0, size=(n, hidden))
        targets = rng.integers(0, vocab, n)
        weights = rng.integers(0, 2, n) / 3.0
        with mock.patch.object(model, "BLOCK_CELLS", block_rows * vocab):
            got = dict(zip(("nll", "dhidden", "dw_out", "db_out"), trainer._output_head(h, targets, weights, p)))
            want = dict(zip(got, full_partial_head(h, targets, weights, p)))
        assert array_bytes(got) == array_bytes(want)

    def test_the_example_cuts_blocks_and_ragged_chunks(self):
        with mock.patch.object(model, "BLOCK_CELLS", 3 * 6):
            assert [s.stop - s.start for s in model.row_blocks(10, 6)] == [3, 3, 2, 2]
            assert [s.stop - s.start for s in model.row_blocks(7, 6)] == [3, 2, 2]


def decode_head(scores):
    """The decoder's log-probabilities on a prefix-free model, whose logits are ``scores``."""
    params = prefix_free_params(scores)
    return step_rows(np.zeros((1, params.dims.embed)), zero_state(params), params)[1][0]


class TestSoftmaxOps:
    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=12)
        npt.assert_allclose(decode_head(z + 100.0), decode_head(z), atol=1e-12)
        npt.assert_allclose(np.exp(decode_head(z)).sum(), 1.0, atol=1e-12)

    def test_softmax_handles_large_logits(self):
        logp = decode_head(np.array([1e9, 0.0, -1e9]))
        p = np.exp(logp)
        assert np.isfinite(p).all()
        npt.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-300)

    # a prefix-free model emits the logits b_out at every step, so the loss
    # is the cross-entropy of each target row against b_out

    def test_cross_entropy_uniform_logits(self):
        params = prefix_free_params(np.zeros(7))
        loss, _ = sequence_loss(make_batch([Example(np.ones(2), 3, (EOS_ID,))]), params)
        npt.assert_allclose(loss, np.log(7.0), rtol=1e-14)

    def test_cross_entropy_backward_is_softmax_minus_onehot(self):
        scores = np.random.default_rng(1).normal(size=5)
        params = prefix_free_params(scores)
        _, grads = sequence_loss(make_batch([Example(np.ones(2), 3, (EOS_ID,))]), params)
        expect = softmax(scores)
        expect[EOS_ID] -= 1.0
        npt.assert_allclose(grads["b_out"], expect, atol=1e-14)

    def test_cross_entropy_target_out_of_range(self):
        params = prefix_free_params(np.zeros(4))
        for bad in (4, -1):
            batch = Batch(np.zeros((1, 2)), np.array([3]), np.array([[2, bad]]))
            with pytest.raises(IndexError):
                sequence_loss(batch, params)

    def test_cross_entropy_rejects_nonfinite(self):
        params = prefix_free_params(np.array([0.0, 0.0, 0.0, np.inf]))
        with pytest.raises(trainer.NonFiniteError, match="finite"):
            sequence_loss(make_batch([Example(np.ones(2), 3, (EOS_ID,))]), params)

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_cross_entropy_rejects_minus_inf_and_nan(self, bad):
        # one bad logit makes its row's max or min non-finite
        params = prefix_free_params(np.array([0.0, 0.0, 0.0, bad]))
        with pytest.raises(trainer.NonFiniteError, match="finite"):
            sequence_loss(make_batch([Example(np.ones(2), 3, (EOS_ID,))]), params)

    def test_cross_entropy_rows_matches_scalar_op(self):
        # a batch of rows scores each row as a one-row batch would
        scores = np.random.default_rng(2).normal(size=6)
        params = prefix_free_params(scores)
        targets = [5, 4, EOS_ID, 5]
        examples = [Example(np.ones(2), 3, (t,)) for t in targets]
        batched, _ = sequence_loss(make_batch(examples), params, mode="sum")
        singles = [sequence_loss(make_batch([ex]), params, mode="sum")[0] for ex in examples]
        npt.assert_allclose(batched, sum(singles), atol=1e-14)
        npt.assert_allclose(singles, [-log_softmax(scores)[t] for t in targets], atol=1e-14)

    def test_cross_entropy_rows_backward(self):
        scores = np.random.default_rng(3).normal(size=6)
        params = prefix_free_params(scores)
        f = np.ones(2)
        batch = make_batch([Example(f, 3, (4, 5, EOS_ID)), Example(f, 3, (EOS_ID,))])
        _, grads = sequence_loss(batch, params, mode="sum")
        expect = batch.token_count * softmax(scores)
        for t in (4, 5, EOS_ID, EOS_ID):
            expect[t] -= 1.0
        npt.assert_allclose(grads["b_out"], expect, atol=1e-14)


class TestBackward:
    def test_loss_must_be_scalar(self):
        params = wide_params(seed=5)
        loss, grads = sequence_loss(ragged_batch(params, np.random.default_rng(5)), params)
        assert isinstance(loss, float)
        assert list(grads) == [name for name, _ in params.named_parameters()]
        assert all(grads[name].shape == p.shape for name, p in params.named_parameters())

    def test_fanout_accumulates_within_graph(self):
        # one embedding row read at every step: its gradient sums all uses
        params = wide_params(vocab=6, embed=3, hidden=3, feature=2, seed=6)
        batch = make_batch([Example(np.ones(2), 4, (4, 4, 4, EOS_ID)), Example(-np.ones(2), 4, (4, EOS_ID))])
        f = lambda: sequence_loss(batch, params, mode="sum")
        assert gradient_check(f, {"w_embed": params.w_embed}) < 1e-7

    def test_backward_frees_the_graph_without_the_cycle_collector(self):
        params = wide_params(seed=7)
        batch = ragged_batch(params, np.random.default_rng(7))
        gc.collect()
        gc.disable()
        try:
            sequence_loss(batch, params)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_forward_backward_bit_identical_across_runs(self):
        def run():
            params = wide_params(vocab=8, embed=4, hidden=5, feature=3, seed=42)
            loss, grads = sequence_loss(ragged_batch(params, np.random.default_rng(42), count=4), params)
            return np.float64(loss).tobytes(), array_bytes(grads)

        assert run() == run()


class TestGradientCheck:
    def test_square_function_tight_agreement(self):
        x = np.array([3.0])
        err = gradient_check(lambda: (float((x * x).sum()), {"x": 2.0 * x}), {"x": x})
        assert err < 1e-9

    def test_requires_scalar_output(self):
        x = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            gradient_check(lambda: (x * 1.0, {"x": np.ones(2)}), {"x": x})

    @pytest.mark.parametrize("seed", range(5))
    def test_random_composed_graphs(self, seed):
        # the whole caption loss at random sizes, ragged padding and both
        # modes; scale 1 keeps every coordinate above the noise floor at
        # these sizes (checked over 40 seeds, worst 1e-6)
        rng = np.random.default_rng(seed)
        embed, hidden = (int(n) for n in rng.integers(1, 4, size=2))
        params = wide_params(
            vocab=int(rng.integers(4, 8)), embed=embed, hidden=hidden, feature=2, seed=seed, scale=1.0
        )
        batch = ragged_batch(params, rng, count=int(rng.integers(1, 4)))
        mode = ("mean", "sum")[seed % 2]
        f = lambda: sequence_loss(batch, params, mode)
        assert gradient_check(f, dict(params.named_parameters())) < 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy_rows_fd(self, seed):
        # the cross-entropy rows through the head, with padding written over random target cells
        rng = np.random.default_rng(10 + seed)
        params = wide_params(vocab=6, embed=3, hidden=3, feature=2, seed=10 + seed)
        batch = ragged_batch(params, rng, count=4)
        padded = rng.integers(0, 2, size=batch.targets.shape) == 0
        padded[0, 0] = False
        batch.targets[padded] = PAD_ID
        f = lambda: sequence_loss(batch, params, mode="sum")
        inputs = {"w_out": params.w_out, "b_out": params.b_out}
        assert gradient_check(f, inputs) < 1e-7


class TestFloat32:
    @pytest.mark.parametrize("pass_steps", [1, 8], ids=["a-pass-per-step", "one-pass"])
    def test_lstm_sequence_follows_its_operands_dtype(self, pass_steps):
        # float32 operands give float32 hidden rows and gradients, each within 1e-5 of
        # float64 relative in L2, whether the pullback's coefficients run in one pass or several
        batch, steps, hidden = 4, 5, 8
        p = random_params(vocab=4, embed=6, hidden=hidden, feature=2, seed=14)
        rng = np.random.default_rng(14)
        x = rng.normal(size=((steps + 1) * batch, p.dims.embed))
        g = rng.normal(size=(steps * batch, hidden))
        runs = []
        for dtype, q in ((np.float64, p), (np.float32, cast_params(p, np.float32))):
            with mock.patch.object(ad, "PASS_CELLS", pass_steps * batch * hidden):
                hs, pullback = ad.lstm_sequence(x.astype(dtype), batch, q.w_x, q.w_h, q.b_gates)
                runs.append((hs, *pullback(g.astype(dtype), x.astype(dtype))))
        for name, want, got in zip(("hidden", "dx", "dw_x", "dw_h", "db_gates"), *runs):
            assert got.dtype == np.float32, name
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want), name
