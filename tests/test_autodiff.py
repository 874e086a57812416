"""Tape engine tests: op values, backward rules, and finite differences."""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from mlcap import autodiff as ad
from mlcap.autodiff import Tensor


def rand(rng, *shape):
    return ad.parameter(rng.uniform(-1.0, 1.0, shape))


class TestOps:
    def test_matmul_value_and_grads(self):
        a = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
        b = ad.parameter([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(a, b)
        npt.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])
        ad.backward(ad.sum_all(out))
        npt.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T)
        npt.assert_allclose(b.grad, a.data.T @ np.ones((2, 2)))

    def test_matmul_rejects_bad_shapes(self):
        a = ad.parameter(np.zeros((2, 3)))
        b = ad.parameter(np.zeros((2, 3)))
        with pytest.raises(ad.DimensionError, match=r"\(2, 3\)"):
            ad.matmul(a, b)
        with pytest.raises(ad.DimensionError):
            ad.matmul(a, ad.parameter(np.zeros(3)))

    def test_add_bias_broadcasts_rows_only(self):
        m = ad.parameter(np.arange(6.0).reshape(2, 3))
        v = ad.parameter([1.0, 10.0, 100.0])
        out = ad.add_bias(m, v)
        npt.assert_allclose(out.data, m.data + v.data)
        ad.backward(ad.sum_all(out))
        npt.assert_allclose(m.grad, np.ones((2, 3)))
        npt.assert_allclose(v.grad, [2.0, 2.0, 2.0])
        with pytest.raises(ad.DimensionError):
            ad.add_bias(m, ad.parameter(np.zeros(2)))

    def test_hadamard_square_gradient(self):
        x = ad.parameter([3.0])
        y = ad.hadamard(x, x)
        ad.backward(ad.sum_all(y))
        npt.assert_allclose(x.grad, [6.0])

    def test_sigmoid_tanh_values(self):
        # the cell applies sigmoid to the i|f|o blocks and tanh to the candidate
        z = np.array([[0.0, 1.0, -1.0, 0.5]])
        c_prev = np.array([[2.0]])
        h, c, gates, tanh_c = ad.lstm_cell(z, c_prev)
        sig = 1.0 / (1.0 + np.exp(-z[0, :3]))
        npt.assert_allclose(gates[0], np.append(sig, np.tanh(0.5)))
        npt.assert_allclose(c, sig[1] * 2.0 + sig[0] * np.tanh(0.5))
        npt.assert_allclose(tanh_c, np.tanh(c))
        npt.assert_allclose(h, sig[2] * np.tanh(c))

    def test_sigmoid_extreme_inputs_stay_finite(self):
        z = np.array([[-1e9, 1e9, -745.0, 745.0], [745.0, -745.0, 1e9, -1e9]])
        h, c, gates, _ = ad.lstm_cell(z, np.zeros((2, 1)))
        assert np.isfinite(gates).all() and np.isfinite(h).all() and np.isfinite(c).all()
        npt.assert_allclose(gates, [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, -1.0]], atol=1e-300)

    def test_take_rows_gather_and_scatter_add(self):
        table = ad.parameter(np.arange(6.0).reshape(3, 2))
        out = ad.take_rows(table, [2, 0, 2])
        npt.assert_allclose(out.data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
        ad.backward(ad.sum_all(out))
        npt.assert_allclose(table.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        with pytest.raises(IndexError):
            ad.take_rows(table, [3])

    def test_scale_and_sum(self):
        x = ad.parameter([1.0, 2.0, 3.0])
        out = ad.scale(ad.sum_all(x), 0.5)
        assert out.item() == 3.0
        ad.backward(out)
        npt.assert_allclose(x.grad, [0.5, 0.5, 0.5])


class TestSoftmaxOps:
    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=12)
        npt.assert_allclose(ad.softmax(z + 100.0), ad.softmax(z), atol=1e-12)
        npt.assert_allclose(ad.log_softmax(z), np.log(ad.softmax(z)), atol=1e-12)

    def test_softmax_handles_large_logits(self):
        z = np.array([1e9, 0.0, -1e9])
        p = ad.softmax(z)
        assert np.isfinite(p).all()
        npt.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-300)

    def test_cross_entropy_uniform_logits(self):
        logits = ad.parameter(np.zeros((1, 7)))
        loss = ad.cross_entropy_rows(logits, [3])
        npt.assert_allclose(loss.data, [np.log(7.0)], rtol=1e-14)

    def test_cross_entropy_backward_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(1)
        logits = ad.parameter(rng.normal(size=(1, 5)))
        ad.backward(ad.sum_all(ad.cross_entropy_rows(logits, [2])))
        expect = ad.softmax(logits.data)
        expect[0, 2] -= 1.0
        npt.assert_allclose(logits.grad, expect, atol=1e-14)

    def test_cross_entropy_target_out_of_range(self):
        logits = ad.parameter(np.zeros((1, 4)))
        with pytest.raises(IndexError):
            ad.cross_entropy_rows(logits, [4])
        with pytest.raises(IndexError):
            ad.cross_entropy_rows(logits, [-1])

    def test_cross_entropy_rejects_nonfinite(self):
        with pytest.raises(ad.NonFiniteError, match="finite"):
            ad.cross_entropy_rows(Tensor([[0.0, np.inf]]), [0])

    def test_cross_entropy_rows_matches_scalar_op(self):
        # a batch of rows scores each row as a one-row batch would
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 6))
        targets = [5, 0, 3, 3]
        batched = ad.cross_entropy_rows(ad.parameter(logits), targets)
        singles = [ad.cross_entropy_rows(ad.parameter(row[None, :]), [t]).data[0] for row, t in zip(logits, targets)]
        npt.assert_allclose(batched.data, singles, atol=1e-14)
        npt.assert_allclose(singles, [-ad.log_softmax(row)[t] for row, t in zip(logits, targets)], atol=1e-14)

    def test_cross_entropy_rows_backward(self):
        rng = np.random.default_rng(3)
        logits = ad.parameter(rng.normal(size=(3, 5)))
        targets = np.array([1, 4, 0])
        ad.backward(ad.sum_all(ad.cross_entropy_rows(logits, targets)))
        expect = ad.softmax(logits.data)
        expect[np.arange(3), targets] -= 1.0
        npt.assert_allclose(logits.grad, expect, atol=1e-14)


class TestBackward:
    def test_loss_must_be_scalar(self):
        x = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.scale(x, 2.0))

    def test_backward_twice_raises(self):
        x = ad.parameter([1.0])
        loss = ad.sum_all(x)
        ad.backward(loss)
        with pytest.raises(ad.GradientError):
            ad.backward(loss)

    def test_backward_on_constant_is_noop(self):
        loss = Tensor(0.0)
        ad.backward(loss)
        assert loss.grad is None

    def test_grad_accumulates_across_graphs(self):
        x = ad.parameter([2.0])
        ad.backward(ad.sum_all(x))
        ad.backward(ad.sum_all(ad.hadamard(x, x)))
        npt.assert_allclose(x.grad, [5.0])

    def test_fanout_accumulates_within_graph(self):
        x = ad.parameter([3.0])
        loss = ad.sum_all(ad.hadamard(ad.hadamard(x, x), x))
        ad.backward(loss)
        npt.assert_allclose(x.grad, [27.0])

    def test_no_grad_suppresses_recording(self):
        x = ad.parameter([1.0, 2.0])
        with ad.no_grad():
            y = ad.hadamard(x, x)
        assert y.entry is None and not y.requires_grad
        assert ad.hadamard(x, x).entry is not None

    def test_tape_is_topologically_ordered(self):
        x = ad.parameter([1.0])
        y = ad.hadamard(x, x)
        z = ad.hadamard(y, x)
        loss = ad.sum_all(z)
        entries = ad.tape_of(loss)
        assert [e.output for e in entries] == [y, z, loss]

    def test_backward_frees_the_graph_without_the_cycle_collector(self):
        a = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.ones((3, 2)))
        gc.disable()
        try:
            mid = ad.matmul(a, b)
            alive = weakref.ref(mid.data)
            loss = ad.sum_all(ad.hadamard(mid, mid))
            del mid
            ad.backward(loss)
            del loss
            assert alive() is None
        finally:
            gc.enable()
        npt.assert_allclose(a.grad, np.full((2, 3), 12.0))

    def test_forward_backward_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(42)
            a = ad.parameter(rng.normal(size=(4, 4)))
            b = ad.parameter(rng.normal(size=(4, 4)))
            loss = ad.sum_all(ad.cross_entropy_rows(ad.matmul(a, b), [0, 1, 2, 3]))
            ad.backward(loss)
            return loss.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()


class TestGradientCheck:
    def test_square_function_tight_agreement(self):
        x = ad.parameter([3.0])
        err = ad.gradient_check(lambda t: ad.sum_all(ad.hadamard(t, t)), [x], h=1e-5)
        assert err < 1e-9

    def test_requires_scalar_output(self):
        x = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            ad.gradient_check(lambda t: ad.scale(t, 1.0), [x])

    def test_rejects_nonpositive_step(self):
        x = ad.parameter([1.0])
        with pytest.raises(ValueError):
            ad.gradient_check(lambda t: ad.sum_all(t), [x], h=0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_composed_graphs(self, seed):
        rng = np.random.default_rng(seed)
        a = rand(rng, 3, 4)
        b = rand(rng, 4, 2)
        v = rand(rng, 2)
        ids = rng.integers(0, 3, size=3)

        def f(a, b, v):
            m = ad.add_bias(ad.matmul(a, b), v)
            m = ad.take_rows(m, ids)
            m = ad.hadamard(ad.hadamard(m, m), ad.scale(m, 0.5))
            return ad.sum_all(ad.cross_entropy_rows(m, ids % 2))

        assert ad.gradient_check(f, [a, b, v], h=1e-5) < 1e-7

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_entropy_rows_fd(self, seed):
        rng = np.random.default_rng(10 + seed)
        logits = rand(rng, 4, 6)
        targets = rng.integers(0, 6, size=4)
        mask = Tensor(rng.integers(0, 2, size=4).astype(float))

        def f(t):
            return ad.sum_all(ad.hadamard(ad.cross_entropy_rows(t, targets), mask))

        assert ad.gradient_check(f, [logits], h=1e-5) < 1e-7
