"""Trainer tests: loss semantics, Adam arithmetic, epoch loop, selection."""

import dataclasses
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcap import autodiff as ad
from mlcap import trainer
from mlcap.beam import BeamConfig
from mlcap.data import Caption, l2_normalize_records, split_dataset, synth_generate
from mlcap.gradcheck import gradient_check
from mlcap.metrics import CorpusEval, cider
from oracles import (
    batch_loop_epoch,
    forward_sequence,
    full_partial_head,
    gates_list_lstm_sequence,
    reference_beam_search,
    row_loop_batch,
    separate_coefficients_lstm_sequence,
    textbook_adam_step,
)
from mlcap.trainer import (
    AdamState,
    Batch,
    DivergenceError,
    Example,
    TrainConfig,
    adam_step,
    clip_gradients,
    examples_from_records,
    make_batch,
    run_training,
    sequence_loss,
    train_epoch,
    validation_score,
)
from mlcap.vocab import EOS_ID, PAD_ID, build_vocab
from tinymodels import array_bytes, prefix_free_params, random_params, tiny_examples, traced_peak, wide_params


class TestBatching:
    def test_examples_from_records_filter_and_encode(self):
        records = synth_generate(4, seed=0, languages=["en", "jp"])
        vocab = build_vocab(
            [(c.language, c.tokens) for r in records for c in r.captions], min_count=1
        )
        both = examples_from_records(records, vocab, ["en", "jp"])
        only_en = examples_from_records(records, vocab, ["en"])
        assert len(both) == 8 and len(only_en) == 4
        for ex in only_en:
            assert ex.start_id == vocab.start_id("en")
            assert ex.target_ids[-1] == EOS_ID

    def test_make_batch_pads_and_masks(self):
        f = np.zeros(2)
        batch = make_batch([Example(f, 3, (5, 2)), Example(f, 4, (6, 7, 8, 2))])
        assert batch.targets.shape == (2, 4)
        npt.assert_array_equal(batch.targets, [[5, 2, PAD_ID, PAD_ID], [6, 7, 8, 2]])
        assert batch.token_count == 6

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch([])

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
    def test_make_batch_equals_the_row_loop(self, lengths, seed):
        rng = np.random.default_rng(seed)
        examples = [
            Example(rng.standard_normal(3), int(rng.integers(3, 9)), tuple(int(t) for t in rng.integers(0, 50, n)))
            for n in lengths
        ]
        assert array_bytes(vars(make_batch(examples))) == array_bytes(vars(row_loop_batch(examples)))


class TestSequenceLoss:
    def test_zero_params_give_log_vocab(self):
        params = prefix_free_params(np.zeros(7))
        batch = make_batch([Example(np.ones(params.dims.feature), 3, (4, 5, 2))])
        loss, _ = sequence_loss(batch, params)
        npt.assert_allclose(loss, np.log(7.0), rtol=1e-12)

    def test_matches_forward_trace_nll(self):
        params = random_params(seed=21)
        rng = np.random.default_rng(21)
        ex = tiny_examples(params, rng, count=1)[0]
        loss, _ = sequence_loss(make_batch([ex]), params, mode="sum")
        trace = forward_sequence(ex.feature, ex.target_ids, ex.start_id, params)
        nll = -sum(np.log(dist[t]) for dist, t in zip(trace.distributions, ex.target_ids))
        npt.assert_allclose(loss, nll, atol=1e-9)

    def test_mean_is_sum_over_token_count(self):
        params = random_params(seed=22)
        rng = np.random.default_rng(22)
        batch = make_batch(tiny_examples(params, rng))
        mean, _ = sequence_loss(batch, params, mode="mean")
        total, _ = sequence_loss(batch, params, mode="sum")
        npt.assert_allclose(mean, total / batch.token_count, atol=1e-12)

    def test_concatenated_batches_average(self):
        params = random_params(seed=23)
        rng = np.random.default_rng(23)
        a, b = tiny_examples(params, rng, count=2, max_tokens=2)
        a = Example(a.feature, a.start_id, (4, 2))
        b = Example(b.feature, b.start_id, (5, 2))  # same token count as a
        separate = (
            sequence_loss(make_batch([a]), params)[0]
            + sequence_loss(make_batch([b]), params)[0]
        ) / 2.0
        joint, _ = sequence_loss(make_batch([a, b]), params)
        npt.assert_allclose(joint, separate, atol=1e-12)

    def test_padding_does_not_leak_into_loss(self):
        params = random_params(seed=24)
        rng = np.random.default_rng(24)
        short = Example(rng.normal(size=params.dims.feature), 3, (4, 2))
        long = Example(rng.normal(size=params.dims.feature), 3, (5, 5, 5, 2))
        joint, _ = sequence_loss(make_batch([short, long]), params, mode="sum")
        apart = (
            sequence_loss(make_batch([short]), params, mode="sum")[0]
            + sequence_loss(make_batch([long]), params, mode="sum")[0]
        )
        npt.assert_allclose(joint, apart, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        embed=st.integers(1, 4),
        hidden=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_padding_does_not_leak_into_gradients(self, lengths, embed, hidden, seed):
        # in sum mode a padded batch's gradients are its examples' own,
        # summed: the padded positions contribute to no gradient
        params = wide_params(vocab=6, embed=embed, hidden=hidden, feature=2, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        examples = [
            Example(rng.normal(size=2), int(rng.integers(3, 6)), tuple(int(t) for t in rng.integers(3, 6, n - 1)) + (EOS_ID,))
            for n in lengths
        ]
        _, joint = sequence_loss(make_batch(examples), params, mode="sum")
        apart = [sequence_loss(make_batch([ex]), params, mode="sum")[1] for ex in examples]
        for name, g in joint.items():
            npt.assert_allclose(g, sum(a[name] for a in apart), rtol=0, atol=1e-12)

    def test_all_masked_rejected(self):
        params = random_params()
        batch = Batch(
            features=np.zeros((1, params.dims.feature)),
            start_ids=np.array([3]),
            targets=np.array([[PAD_ID]]),
        )
        with pytest.raises(ValueError, match="only padding"):
            sequence_loss(batch, params)

    def test_bad_mode_rejected(self):
        params = random_params()
        batch = make_batch([Example(np.zeros(params.dims.feature), 3, (2,))])
        with pytest.raises(ValueError, match="mode"):
            sequence_loss(batch, params, mode="median")

    def test_gradients_match_finite_differences(self):
        # a wide-scale model keeps every gradient coordinate above the
        # finite-difference noise floor, so the per-coordinate bound is fair
        params = wide_params(vocab=6, embed=3, hidden=3, feature=2, seed=25)
        rng = np.random.default_rng(25)
        batch = make_batch(tiny_examples(params, rng, count=3))

        f = lambda: sequence_loss(batch, params)
        assert gradient_check(f, dict(params.named_parameters())) < 1e-5

    def test_head_holds_one_block_of_logits_at_a_time(self, monkeypatch):
        # one [T*B,V] array at this shape is 6 MB; with 2**16-cell blocks no
        # more than a few of those cells are alive, so the whole call peaks
        # far below that array (numpy reports its buffers to tracemalloc)
        vocab, batch_size, steps = 2000, 32, 12
        params = wide_params(vocab=vocab, embed=16, hidden=16, feature=8, seed=13)
        rng = np.random.default_rng(13)
        examples = [
            Example(rng.normal(size=8), 3, tuple(int(t) for t in rng.integers(3, vocab, steps - 1)) + (EOS_ID,))
            for _ in range(batch_size)
        ]
        batch = make_batch(examples)
        monkeypatch.setattr(trainer, "BLOCK_CELLS", 2**16)
        logits_bytes = steps * batch_size * vocab * 8
        assert traced_peak(lambda: sequence_loss(batch, params)) < logits_bytes / 2

    @pytest.mark.parametrize("earlier", [None, "gates list", "whole partial", "separate coefficients"])
    def test_step_holds_the_bptt_working_set(self, earlier, monkeypatch):
        # the traced peak of one step stays under everything backpropagation
        # through time needs at once: the inputs, the one gates buffer, the
        # hidden and cell rows, every gradient, one logits block, one dw_out
        # chunk and a few [B,4H] step scratch arrays. The earlier forms, with
        # a gates list beside the projections, a whole [H,V] partial, or the
        # pullback's coefficients in arrays of their own beside the gates, go over.
        vocab, embed, hidden, batch_size, steps = 2000, 4, 64, 32, 8
        params = wide_params(vocab=vocab, embed=embed, hidden=hidden, feature=4, seed=3)
        rng = np.random.default_rng(3)
        examples = [
            Example(rng.normal(size=4), 3, tuple(int(t) for t in rng.integers(3, vocab, steps - 1)) + (EOS_ID,))
            for _ in range(batch_size)
        ]
        batch = make_batch(examples)
        monkeypatch.setattr(trainer, "BLOCK_CELLS", 8 * vocab)  # 32 head blocks, 8 dw_out chunks
        if earlier == "gates list":
            monkeypatch.setattr(ad, "lstm_sequence", gates_list_lstm_sequence)
        elif earlier == "whole partial":
            monkeypatch.setattr(trainer, "_output_head", full_partial_head)
        elif earlier == "separate coefficients":
            monkeypatch.setattr(ad, "lstm_sequence", separate_coefficients_lstm_sequence)
        rows = (steps + 1) * batch_size
        cells = (
            rows * (embed + 4 * hidden + 2 * hidden)  # inputs, gates, hidden and cell rows
            + steps * batch_size * hidden + rows * embed  # dhidden, dx
            + sum(p.size for _, p in params.named_parameters())  # every gradient
            + 2 * trainer.BLOCK_CELLS  # a logits block and a dw_out chunk
            + 4 * batch_size * 4 * hidden  # step scratch
        )
        peak = traced_peak(lambda: sequence_loss(batch, params))
        assert (peak < 8 * cells) == (earlier is None), (peak, 8 * cells)


class TestAdam:
    def test_first_step_hand_value(self):
        params = prefix_free_params(np.zeros(3))
        grads = {name: np.zeros_like(p) for name, p in params.named_parameters()}
        grads["b_out"] = np.array([1.0, 0.0, 0.0])
        state = AdamState.for_params(params)
        adam_step(params, grads, state)
        assert state.t == 1
        assert abs(params.b_out[0] - (-0.000999999990)) < 1e-12
        assert params.b_out[1] == 0.0

    def test_matches_reference_formula_over_steps(self):
        rng = np.random.default_rng(31)
        params = random_params(vocab=4, embed=2, hidden=2, feature=2, seed=31)
        state = AdamState.for_params(params)
        mirror = {name: p.copy() for name, p in params.named_parameters()}
        m = {name: np.zeros_like(v) for name, v in mirror.items()}
        v = {name: np.zeros_like(x) for name, x in mirror.items()}
        for t in range(1, 6):
            grads = {name: rng.normal(size=p.shape) for name, p in params.named_parameters()}
            adam_step(params, grads, state)
            for name in mirror:
                g = grads[name]
                m[name] = 0.9 * m[name] + 0.1 * g
                v[name] = 0.999 * v[name] + 0.001 * g * g
                m_hat = m[name] / (1.0 - 0.9**t)
                v_hat = v[name] / (1.0 - 0.999**t)
                mirror[name] -= 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
                npt.assert_allclose(getattr(params, name), mirror[name], atol=1e-15)

    def test_in_place_update_is_bit_identical_to_textbook(self):
        self.assert_textbook_steps(wide_params(vocab=50, embed=16, hidden=24, feature=32, seed=5))

    @pytest.mark.parametrize("elements", [1, 7, 37])
    def test_slices_are_bit_identical_to_textbook(self, elements, monkeypatch):
        # no parameter size is a multiple of 7 or 37; 16-wide rows give
        # one-row slices at 7 and two-row slices at 37, and a Fortran-ordered
        # w_out checks that slices are views whatever the layout
        monkeypatch.setattr(trainer, "ADAM_SLICE", elements)
        params = wide_params(vocab=50, embed=16, hidden=24, feature=31, seed=5)
        params.w_out = np.asfortranarray(params.w_out)
        assert all(p.size % 7 and p.size % 37 for _, p in params.named_parameters())
        self.assert_textbook_steps(params)

    def assert_textbook_steps(self, params):
        rng = np.random.default_rng(5)
        state = AdamState.for_params(params)
        arrays = {name: p.copy() for name, p in params.named_parameters()}
        m = {name: np.zeros_like(p) for name, p in arrays.items()}
        v = {name: np.zeros_like(p) for name, p in arrays.items()}
        for t in range(1, 4):
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.shape) for name, p in arrays.items()}
            adam_step(params, grads, state)
            textbook_adam_step(arrays, grads, m, v, t)
            assert array_bytes(params) == array_bytes(arrays)
            assert (array_bytes(state.m), array_bytes(state.v)) == (array_bytes(m), array_bytes(v))

    def test_shape_mismatch_rejected(self):
        params = prefix_free_params(np.zeros(3))
        grads = {name: np.zeros_like(p) for name, p in params.named_parameters()}
        grads["b_out"] = np.zeros(4)
        with pytest.raises(ad.DimensionError):
            adam_step(params, grads, AdamState.for_params(params))

    def test_missing_gradient_rejected(self):
        params = prefix_free_params(np.zeros(3))
        with pytest.raises(ValueError, match="missing"):
            adam_step(params, {}, AdamState.for_params(params))


class TestClip:
    def test_large_gradients_scaled_to_norm(self):
        grads = {"a": np.array([30.0, 40.0])}
        norm = clip_gradients(grads)
        assert norm == 50.0
        npt.assert_allclose(np.linalg.norm(grads["a"]), 5.0)
        npt.assert_allclose(grads["a"], [3.0, 4.0])

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads)
        npt.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_finite_gradient_whose_square_overflows_is_clipped(self):
        grads = {"a": np.array([1e200, 1.0]), "b": np.array([-1e200])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = clip_gradients(grads)
        assert norm == 1e200 * math.sqrt(2.0)
        npt.assert_allclose(math.hypot(*grads["a"], *grads["b"]), trainer.CLIP_NORM, rtol=1e-15)
        npt.assert_allclose(grads["a"][0], -grads["b"][0], rtol=0)


class TestSelection:
    def test_ties_break_earliest(self, monkeypatch):
        scores = iter([0.2, 0.5, 0.5, 0.5])
        monkeypatch.setattr(trainer, "validation_score", lambda *args: next(scores))
        snapshots = []

        def save_epoch(params, vocab, epoch):
            snapshots.append(array_bytes(params))

        split = TestRunTraining().small_split()
        result = run_training(split, TestRunTraining().small_config(epochs=4), save_epoch=save_epoch)
        assert result.best_epoch == 1 and len(snapshots) == 4
        assert array_bytes(result.params) == snapshots[1]
        assert snapshots[1]["w_out"] != snapshots[3]["w_out"]


class TestTrainEpoch:
    def test_loss_decreases_on_tiny_data(self, monkeypatch):
        records = synth_generate(12, seed=40, languages=["en"])
        vocab = build_vocab([(c.language, c.tokens) for r in records for c in r.captions], min_count=1)
        from mlcap.model import Dims, init_params

        params = init_params(Dims(len(vocab), 8, 8, 16), seed=0)
        config = TrainConfig(epochs=1, batch_size=4, hidden=8, embed=8, min_count=1)
        monkeypatch.setattr(trainer, "ADAM_ALPHA", 0.05)
        adam = AdamState.for_params(params)
        examples = examples_from_records(records, vocab, ["en"])
        rng = np.random.default_rng(0)
        first = train_epoch(examples, params, adam, config, rng)
        for _ in range(14):
            last = train_epoch(examples, params, adam, config, rng)
        assert last < first * 0.5

    def test_divergence_names_the_batch_before_updating(self, monkeypatch):
        # a huge step size throws the weights so far that the next forward
        # pass overflows; that batch fails before Adam touches the weights
        records = synth_generate(8, seed=41, languages=["en"])
        vocab = build_vocab([(c.language, c.tokens) for r in records for c in r.captions], min_count=1)
        params = random_params(vocab=len(vocab), embed=4, hidden=4, feature=16, seed=1)
        monkeypatch.setattr(trainer, "ADAM_ALPHA", 1e308)
        adam = AdamState.for_params(params)
        config = TrainConfig(epochs=1, batch_size=4, hidden=4, embed=4, min_count=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as caught:
            train_epoch(examples_from_records(records, vocab, ["en"]), params, adam, config, np.random.default_rng(0))
        assert (caught.value.batch, caught.value.epoch, adam.t) == (1, None, 1)
        assert "non-finite loss or gradient in batch 1" in str(caught.value)
        assert all(np.isfinite(p).all() for _, p in params.named_parameters())

    def test_non_finite_logits_in_the_last_head_block_stop_the_batch(self, monkeypatch):
        # token 7's embedding is NaN and it is fed only at the last step, so
        # only the last row block of the second batch's logits is non-finite
        params = wide_params(vocab=8, embed=3, hidden=4, feature=2, seed=12)
        params.w_embed[7] = np.nan
        f = np.ones(2)
        intended = [Example(f, 3, (5, 6, EOS_ID)), Example(-f, 4, (6, 5, EOS_ID)),
                    Example(f, 3, (5, 7, EOS_ID)), Example(-f, 4, (6, 7, EOS_ID))]
        order = np.random.default_rng(0).permutation(4)
        examples = [None] * 4
        for position, index in enumerate(order):
            examples[index] = intended[position]  # train_epoch's shuffle restores the intended order
        monkeypatch.setattr(trainer, "BLOCK_CELLS", 2 * params.dims.vocab)
        bad = make_batch(intended[2:])
        hidden, _ = ad.lstm_sequence(
            np.concatenate((bad.features @ params.w_image + params.b_image, params.w_embed[[3, 4, 5, 6, 7, 7]])),
            2, params.w_x, params.w_h, params.b_gates,
        )
        blocks = trainer.row_blocks(6, params.dims.vocab)
        assert [np.isfinite(hidden[b]).all() for b in blocks] == [True, True, False]
        updated = []

        def spy(params, grads, state):
            adam_step(params, grads, state)
            updated.append(array_bytes(params))

        monkeypatch.setattr(trainer, "adam_step", spy)
        adam = AdamState.for_params(params)
        config = TrainConfig(epochs=1, batch_size=2, hidden=4, embed=3, min_count=1)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as caught:
            train_epoch(examples, params, adam, config, np.random.default_rng(0))
        assert isinstance(caught.value.__cause__, ad.NonFiniteError)
        assert "non-finite loss or gradient in batch 1" in str(caught.value)
        assert caught.value.batch == 1 and len(updated) == 1
        assert array_bytes(params) == updated[0]

    @settings(max_examples=40, deadline=None)
    @given(
        longest=st.integers(1, 6),
        extra=st.lists(st.integers(1, 6), max_size=9),
        batch_size=st.integers(2, 5),
        loss_mode=st.sampled_from(trainer.LOSS_MODES),
        clip=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_epoch_equals_the_batch_loop(self, longest, extra, batch_size, loss_mode, clip, seed):
        # every length 1..longest, both languages' start ids and a short last
        # batch: the epoch trains the bytes that the restated loop (row-loop
        # batches, textbook Adam) trains, in the parameters and both Adam moments
        rng = np.random.default_rng(seed)
        lengths = list(range(1, longest + 1)) + [min(n, longest) for n in extra]
        if len(lengths) % batch_size == 0:
            lengths.append(longest)
        examples = [
            Example(rng.normal(size=2), 3 + k % 2, tuple(int(t) for t in rng.integers(5, 9, n - 1)) + (EOS_ID,))
            for k, n in enumerate(lengths)
        ]
        config = TrainConfig(epochs=1, batch_size=batch_size, hidden=3, embed=2, min_count=1, loss_mode=loss_mode, clip=clip)
        batches = []

        def spy(batch, params, mode):
            batches.append(batch)
            return sequence_loss(batch, params, mode)

        runs = []
        for epoch in (train_epoch, batch_loop_epoch):
            params = wide_params(vocab=9, embed=2, hidden=3, feature=2, seed=seed % 1000)
            adam = AdamState.for_params(params)
            shuffle = np.random.default_rng(seed)
            with mock.patch.object(trainer, "sequence_loss", spy):
                losses = [epoch(examples, params, adam, config, shuffle) for _ in range(2)]
            runs.append((losses, params, adam))
        (losses, params, adam), (want_losses, want_params, want_adam) = runs
        assert losses == want_losses and adam.t == want_adam.t
        assert array_bytes(params) == array_bytes(want_params)
        assert (array_bytes(adam.m), array_bytes(adam.v)) == (array_bytes(want_adam.m), array_bytes(want_adam.v))
        # each batch of the first epoch is the row loop's batch of its examples
        order = np.random.default_rng(seed).permutation(len(examples))
        shuffled = [examples[i] for i in order]
        starts = range(0, len(shuffled), batch_size)
        assert len(batches) == 4 * len(starts)  # two epochs of each loop
        for lo, got in zip(starts, batches):
            assert array_bytes(vars(got)) == array_bytes(vars(row_loop_batch(shuffled[lo : lo + batch_size])))

    def test_requires_examples(self):
        params = random_params()
        config = TrainConfig(epochs=1)
        with pytest.raises(ValueError):
            train_epoch([], params, AdamState.for_params(params), config, np.random.default_rng(0))


class TestConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert (c.epochs, c.batch_size, c.hidden, c.embed) == (40, 128, 512, 512)
        assert (c.beam, c.val_beam, c.seed, c.min_count) == (5, 1, 42, 5)
        assert c.loss_mode == "mean" and c.clip is False

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(loss_mode="avg")
        with pytest.raises(ValueError):
            TrainConfig(languages=("en", "en"))

    @pytest.mark.parametrize("field, value", [("epochs", 2.5), ("batch_size", 8.0), ("max_len", 8.5), ("min_count", 1.5), ("epochs", True)])
    def test_counts_must_be_positive_ints(self, field, value):
        # a float count passed, then run_training failed after building the vocabulary; 1.5 and True trained into checkpoints
        with pytest.raises(ValueError, match=re.escape(f"config.{field} must be a positive int, got {value!r}")):
            TrainConfig(**{field: value})

    def test_as_dict_roundtrips_json(self):
        d = TrainConfig(languages=("en", "jp")).as_dict()
        assert json.loads(json.dumps(d)) == d
        assert list(TrainConfig().as_dict()) == [f.name for f in dataclasses.fields(TrainConfig)]


class TestRunTraining:
    def small_split(self):
        records = synth_generate(30, seed=50, languages=["en", "jp"])
        return split_dataset(records, (24, 6, 0), seed=1)

    def small_config(self, **over):
        base = dict(
            epochs=3, batch_size=8, hidden=12, embed=10, min_count=1, max_len=8, seed=7
        )
        base.update(over)
        return TrainConfig(**base)

    def test_history_log_and_best_copy(self):
        lines = []
        result = run_training(self.small_split(), self.small_config(), log=lines.append)
        assert len(result.history) == 3 and len(lines) == 3
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 4
            float(parts[1]), float(parts[2]), float(parts[3])
        scores = [s.val_score for s in result.history]
        assert result.best_epoch == scores.index(max(scores))
        assert result.params.dims.vocab == len(result.vocab)
        assert result.params.dims.feature == 16

    def test_reruns_are_bit_identical(self):
        a = run_training(self.small_split(), self.small_config())
        b = run_training(self.small_split(), self.small_config())
        assert [s.val_score for s in a.history] == [s.val_score for s in b.history]
        assert array_bytes(a.params) == array_bytes(b.params)

    def test_language_filter_restricts_vocab(self):
        result = run_training(self.small_split(), self.small_config(languages=("en",)))
        assert result.vocab.languages == ("en",)
        assert "desu" not in result.vocab.token_to_id

    @pytest.mark.parametrize("seed", [1.5, -1, True, "7"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # otherwise a float seed trains with its floor while as_dict() records the float
        with pytest.raises(ValueError, match=f"seed must be an int >= 0, got {seed!r}"):
            run_training(self.small_split(), self.small_config(seed=seed))

    def test_empty_training_split_rejected(self):
        split = self.small_split()
        split.train = []
        with pytest.raises(ValueError):
            run_training(split, self.small_config())

    @pytest.mark.parametrize("val", ["empty", "other-language", "one-of-two-languages"])
    def test_validation_without_training_languages_rejected(self, val, monkeypatch):
        # without a scored validation caption every epoch would score 0 and
        # the least-trained epoch would be kept as the best; with one of two
        # languages missing, the validation mean would silently cover the other alone
        split = self.small_split()
        languages, missing = ("en",), "en"
        if val == "empty":
            split.val = []
        else:
            kept = "jp" if val == "other-language" else "en"
            only_kept = lambda r: tuple(c for c in r.captions if c.language == kept)
            split.val = [dataclasses.replace(r, captions=only_kept(r)) for r in split.val]
        if val == "one-of-two-languages":
            languages, missing = None, "jp"
        monkeypatch.setattr(trainer, "train_epoch", lambda *args: pytest.fail("trained before validating"))
        with pytest.raises(ValueError, match=rf"no validation captions in languages \['{missing}'\]"):
            run_training(split, self.small_config(languages=languages))

    def test_language_without_training_captions_rejected(self, monkeypatch):
        # otherwise a full epoch trains before decoding finds no start token for it
        split = self.small_split()
        en_only = lambda r: tuple(c for c in r.captions if c.language == "en")
        split.train = [dataclasses.replace(r, captions=en_only(r)) for r in split.train]
        monkeypatch.setattr(trainer, "train_epoch", lambda *args: pytest.fail("trained before validating"))
        with pytest.raises(ValueError, match=r"no captions in languages \['jp'\]"):
            run_training(split, self.small_config(languages=("en", "jp")))

    def test_feature_l2norm_is_applied_by_run_training(self):
        split = self.small_split()
        normalized = dataclasses.replace(
            split, train=l2_normalize_records(split.train), val=l2_normalize_records(split.val)
        )
        flagged = run_training(split, self.small_config(epochs=1, feature_l2norm=True))
        by_hand = run_training(normalized, self.small_config(epochs=1))
        raw = run_training(split, self.small_config(epochs=1))
        assert array_bytes(flagged.params) == array_bytes(by_hand.params) != array_bytes(raw.params)

    def test_lowercase_is_applied_by_run_training(self):
        # the synthetic captions are lowercase, so shouting them and training
        # with lowercase on must reproduce the plain run, validation included
        def shout(r):
            return dataclasses.replace(
                r, captions=tuple(Caption(c.language, tuple(t.upper() for t in c.tokens)) for c in r.captions)
            )

        split = self.small_split()
        shouted = dataclasses.replace(split, train=list(map(shout, split.train)), val=list(map(shout, split.val)))
        flagged = run_training(shouted, self.small_config(epochs=2, lowercase=True))
        plain = run_training(split, self.small_config(epochs=2))
        assert "blue" in flagged.vocab.token_to_id and "BLUE" not in flagged.vocab.token_to_id
        assert flagged.vocab.id_to_token == plain.vocab.id_to_token
        assert [s.val_score for s in flagged.history] == [s.val_score for s in plain.history]
        assert array_bytes(flagged.params) == array_bytes(plain.params)


class TestDecodeHelpers:
    def test_decode_images_returns_surface_tokens(self):
        result = run_training(
            TestRunTraining().small_split(), TestRunTraining().small_config(epochs=1)
        )
        [tokens] = trainer.decode_images(result.params, result.vocab, [np.ones(16)], "en", 2, 6)
        for tok in tokens:
            assert not tok.startswith("<") or tok == "<unk>"

    @pytest.mark.parametrize("width", [1, 2])
    def test_validation_score_is_the_mean_of_per_image_decodes(self, width):
        split = TestRunTraining().small_split()
        result = run_training(split, TestRunTraining().small_config(epochs=2))
        # one record without jp captions: it counts for en only
        records = list(split.val) + [dataclasses.replace(split.val[0], captions=split.val[0].captions[:1])]
        assert {c.language for c in records[-1].captions} == {"en"}
        per_language = []
        for lang in ("en", "jp"):
            pairs = []
            for rec in records:
                refs = [c.tokens for c in rec.captions if c.language == lang]
                if refs:
                    [cand] = trainer.decode_images(result.params, result.vocab, [rec.feature], lang, width, 8)
                    pairs.append((cand, refs))
            per_language.append(cider(CorpusEval.from_pairs(pairs)))
        expected = math.fsum(per_language) / 2
        assert validation_score(result.params, result.vocab, records, ["en", "jp"], width, 8) == expected

    @staticmethod
    def assert_blocks_match_per_image_beams(n, width, monkeypatch):
        vocab = build_vocab([("en", tuple("abcdef")), ("jp", ("x", "y"))], min_count=1)
        params = wide_params(vocab=len(vocab), embed=8, hidden=8, feature=3, seed=n, scale=2.0)
        blocks, beam_block = [], trainer.beam_block

        def spy(features, *args):
            blocks.append(beam_block(features, *args))
            return blocks[-1]

        monkeypatch.setattr(trainer, "BLOCK_CELLS", 2 * len(vocab) * width)  # 2-image blocks, one of 3 for odd n
        monkeypatch.setattr(trainer, "beam_block", spy)
        features = np.random.default_rng(n).normal(scale=2.0, size=(n, params.dims.feature))
        decoded = trainer.decode_images(params, vocab, features, "jp", width, 6)
        config = BeamConfig(width=width, max_len=6, exclude_ids=(PAD_ID,) + vocab.start_ids)
        expected = [reference_beam_search(f, vocab.start_id("jp"), params, config) for f in features]
        assert [ranked for block in blocks for ranked in block] == expected
        assert decoded == [vocab.decode(ranked[0][0]) for ranked in expected]
        heights = sorted(len(block) for block in blocks)
        assert heights == ([1] if n == 1 else [2] * (n // 2 - n % 2) + [3] * (n % 2))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_greedy_decode_images_matches_per_image_beams(self, n, monkeypatch):
        self.assert_blocks_match_per_image_beams(n, 1, monkeypatch)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_beam_decode_images_matches_per_image_beams(self, n, monkeypatch):
        self.assert_blocks_match_per_image_beams(n, 3, monkeypatch)

    @pytest.mark.parametrize("width", [1, 2])
    def test_no_images_decode_to_no_captions(self, width):
        vocab = build_vocab([("en", ("a", "b"))], min_count=1)
        params = random_params(vocab=len(vocab))
        assert trainer.decode_images(params, vocab, np.zeros((0, params.dims.feature)), "en", width, 4) == []

    def test_validation_score_empty_is_zero(self):
        params = random_params()
        vocab = build_vocab([("en", ("a",))], min_count=1)
        assert validation_score(params, vocab, [], ["en"], 1, 4) == 0.0
