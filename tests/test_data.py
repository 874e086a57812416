"""Dataset parsing/validation, splits, checkpoint round trips, synth data."""

import tempfile
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlcap.data import (
    Checkpoint,
    CheckpointError,
    DatasetError,
    ImageRecord,
    checkpoint_from_model,
    corpus_from_records,
    l2_normalize_records,
    load_checkpoint,
    load_dataset,
    lowercase_records,
    model_from_checkpoint,
    save_checkpoint,
    save_dataset,
    split_dataset,
    synth_generate,
)
import malformed
from malformed import TABLES, forge, rewrite_checkpoint_header, unnamed, valid, write_jsonl
from oracles import forward_sequence
from mlcap.model import Dims, ModelParams, param_shapes
from mlcap.vocab import build_vocab
from tinymodels import array_bytes, random_params

EPS = np.finfo(float).eps  # one ulp of 1.0


def assert_refused(error, load, path, case):
    with pytest.raises(error) as refused:
        load(path)
    assert f"{path}{case.message}" in str(refused.value)


def check_row(kind, row, layer, valid, folder, capsys=None):
    """``kind``'s loader refuses the row's file with its message, or loads a row it accepts; a
    dataset also with ``require_captions`` off, as ``caption`` reads, where it loads a row ``caption`` accepts."""
    case = TABLES[kind][row]
    path = forge(case, valid[kind], folder)
    if kind == "checkpoint":
        if "load_checkpoint" in case.accepted_by:
            load_checkpoint(path)
        else:
            assert_refused(CheckpointError, load_checkpoint, path, case)
        return
    assert_refused(DatasetError, load_dataset, path, case)
    if "caption" in case.accepted_by:
        assert load_dataset(path, require_captions=False)[1].captions == ()
    else:
        assert_refused(DatasetError, lambda p: load_dataset(p, require_captions=False), path, case)


row_checks = partial(malformed.row_checks, check_row, "loader")


def test_the_valid_files_load(valid):
    assert len(load_dataset(valid["dataset"])) == 3
    assert load_checkpoint(valid["checkpoint"]).epoch == 1


def good_row(i=0, langs=("en",)):
    return {
        "image_id": f"img-{i}",
        "feature": [0.1 * i, 1.0, -2.0],
        "captions": [{"lang": l, "tokens": ["a", "cat"]} for l in langs],
    }


class TestLoadDataset:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [good_row(0), good_row(1, langs=("en", "jp"))])
        records = load_dataset(p)
        assert [r.image_id for r in records] == ["img-0", "img-1"]
        assert records[1].captions[1].language == "jp"
        npt.assert_array_equal(records[0].feature, [0.0, 1.0, -2.0])
        out = tmp_path / "copy.jsonl"
        save_dataset(records, out)
        reread = load_dataset(out)
        assert [r.image_id for r in reread] == ["img-0", "img-1"]
        npt.assert_array_equal(reread[0].feature, records[0].feature)

    def test_failed_save_leaves_the_previous_file_whole(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(synth_generate(3, seed=0, languages=["en"]), path)
        before = path.read_bytes()
        good = synth_generate(2, seed=1, languages=["en"])
        # a feature entry that is not a number fails float() after the first line is written
        broken = ImageRecord("bad", np.array([object()], dtype=object), good[0].captions)
        with pytest.raises(TypeError):
            save_dataset(good + [broken], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]

    def test_lowercase_flag(self, tmp_path):
        p = tmp_path / "d.jsonl"
        row = good_row(0)
        row["captions"][0]["tokens"] = ["A", "Cat"]
        write_jsonl(p, [row])
        assert lowercase_records(load_dataset(p))[0].captions[0].tokens == ("a", "cat")
        assert load_dataset(p)[0].captions[0].tokens == ("A", "Cat")

    def test_crlf_lines_load_as_lf_lines(self, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_jsonl(lf, [good_row(0), good_row(1, langs=("en", "jp"))])
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = load_dataset(lf), load_dataset(crlf)
        assert [(r.image_id, r.feature.tobytes(), r.captions) for r in a] == [
            (r.image_id, r.feature.tobytes(), r.captions) for r in b
        ]

    # ids these rows ran under before the tables; the table test at the end runs every other row
    test_error_names_line_number = row_checks("dataset", "invalid-json")
    test_duplicate_image_id = row_checks("dataset", "duplicate-id")
    test_feature_width_mismatch_names_image = row_checks("dataset", "feature-width")
    test_nonfinite_feature_rejected = row_checks("dataset", "feature-1e999")
    test_non_number_feature_entry_rejected = row_checks(
        "dataset", "feature-string", "feature-bool", "feature-null", "feature-list", "feature-object",
        ids=['"1.5"', "true", "null", "[1.0]", "{}"],
    )
    test_integer_beyond_float_range_rejected = row_checks("dataset", "feature-10e400")
    test_token_that_does_not_survive_a_whitespace_split_rejected = row_checks(
        "dataset", "token-space", "token-empty", "token-line-feed", "token-ideographic-space", ids=["New York", "", "cab\n", "\u3000"]
    )
    test_image_id_holding_a_tab_or_line_break_rejected = row_checks(
        "dataset", "id-tab", "id-line-feed", "id-carriage-return", ids=["img-1\tx", "img-1\nx", "img-1\r"]
    )
    test_lang_that_a_langs_flag_cannot_name_rejected = row_checks(
        "dataset", "lang-empty", "lang-comma", "lang-space", "lang-line-feed", ids=["", "jp,x", "j p", "en\n"]
    )
    test_lang_whose_start_token_is_a_control_token_rejected = row_checks(
        "dataset", "lang-pad", "lang-unk", "lang-eos", ids=["pad", "unk", "eos"]
    )
    test_lone_surrogate_escape_rejected_with_file_and_line = row_checks(
        "dataset", "surrogate-token", "surrogate-id", "surrogate-lang", ids=["token", "image_id", "lang"]
    )
    test_missing_captions_rejected_unless_allowed = row_checks("dataset", "no-captions")
    test_bad_caption_shape = row_checks("dataset", "tokens-not-a-list")
    test_empty_file_rejected = row_checks("dataset", "empty-file")
    test_bytes_that_are_not_utf8_name_file_and_line = row_checks("dataset", "utf16-bom", "latin1-crlf", ids=["bom", "latin1-crlf"])


class TestHelpers:
    def test_corpus_from_records_filters_languages(self):
        records = synth_generate(3, seed=0, languages=["en", "jp"])
        pairs = corpus_from_records(records)
        assert len(pairs) == 6
        only_jp = corpus_from_records(records, languages=["jp"])
        assert len(only_jp) == 3 and all(lang == "jp" for lang, _ in only_jp)

    def test_l2_normalize(self):
        records = [
            ImageRecord("a", np.array([3.0, 4.0]), ()),
            ImageRecord("b", np.array([0.0, 0.0]), ()),
        ]
        out = l2_normalize_records(records)
        npt.assert_allclose(np.linalg.norm(out[0].feature), 1.0)
        npt.assert_array_equal(out[1].feature, [0.0, 0.0])

    # squared norms that overflow (1e400, 2e616) or underflow (2e-400, 2.5e-647)
    @pytest.mark.parametrize(
        "feature, unit",
        [
            ([1e200, 1e200, 0.0], [np.sqrt(0.5), np.sqrt(0.5), 0.0]),
            ([1e-200, 1e-200, 0.0], [np.sqrt(0.5), np.sqrt(0.5), 0.0]),
            ([5e-324, 0.0], [1.0, 0.0]),
            ([1e308, -1e308], [np.sqrt(0.5), -np.sqrt(0.5)]),
        ],
        ids=["overflow", "underflow", "subnormal", "largest"],
    )
    def test_l2_normalize_squared_norm_out_of_range(self, feature, unit):
        (out,) = l2_normalize_records([ImageRecord("a", np.array(feature), ())])
        npt.assert_allclose(out.feature, unit, rtol=4 * EPS, atol=0)

    @settings(max_examples=150, deadline=None)
    @given(arrays(np.float64, st.integers(1, 8), elements=st.floats(-1e308, 1e308)))
    def test_l2_normalize_any_nonzero_feature_is_unit_and_parallel(self, feature):
        assume(np.any(feature))
        (out,) = l2_normalize_records([ImageRecord("a", feature, ())])
        assert abs(np.linalg.norm(out.feature) - 1.0) <= 4 * EPS
        k = int(np.argmax(np.abs(feature)))
        assert np.sign(out.feature[k]) == np.sign(feature[k])
        npt.assert_allclose(out.feature, out.feature[k] * (feature / feature[k]), rtol=0, atol=4 * EPS)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.integers(1, 8), elements=st.just(0.0) | st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150)))
    def test_l2_normalize_keeps_the_bits_of_a_normal_squared_norm(self, feature):
        assume(np.any(feature))
        (out,) = l2_normalize_records([ImageRecord("a", feature, ())])
        assert out.feature.tobytes() == (feature / np.linalg.norm(feature)).tobytes()


class TestSplit:
    def test_counts_and_fractions(self):
        records = synth_generate(10, seed=1, languages=["en"])
        s = split_dataset(records, (6, 2, 2), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (6, 2, 2)
        f = split_dataset(records, (0.8, 0.1, 0.1), seed=0)
        assert (len(f.train), len(f.val), len(f.test)) == (8, 1, 1)

    def test_partition_is_disjoint_and_seeded(self):
        records = synth_generate(12, seed=2, languages=["en"])
        a = split_dataset(records, (8, 2, 2), seed=5)
        b = split_dataset(records, (8, 2, 2), seed=5)
        c = split_dataset(records, (8, 2, 2), seed=6)
        ids = lambda part: [r.image_id for r in part]
        assert ids(a.train) == ids(b.train) and ids(a.test) == ids(b.test)
        assert ids(a.train) != ids(c.train)
        all_ids = ids(a.train) + ids(a.val) + ids(a.test)
        assert len(set(all_ids)) == len(all_ids) == 12

    @pytest.mark.parametrize("parts", [(0.5, float("nan"), 0.0), (0.5, float("inf"), 0.0), (0.5, -0.1, 0.0)])
    def test_fractions_must_be_finite_and_non_negative(self, parts):
        records = synth_generate(5, seed=3, languages=["en"])
        with pytest.raises(ValueError, match="must be finite, non-negative"):
            split_dataset(records, parts, seed=0)

    # floating point loses a record at only 178 of the 303101 (k, total) pairs up to 3000
    # records (0.29 of 100 gave 28), so the draws are joined by some of them
    @settings(max_examples=200, deadline=None)
    @given(total=st.integers(0, 3000), shares=st.tuples(*[st.integers(0, 100)] * 3).filter(lambda ks: sum(ks) <= 100))
    @example(total=100, shares=(29, 1, 70))
    @example(total=100, shares=(57, 14, 29))
    @example(total=90, shares=(70, 15, 15))
    @example(total=50, shares=(58, 0, 42))
    @example(total=2150, shares=(94, 6, 0))
    def test_hundredths_count_k_times_total_floor_100(self, total, shares):
        s = split_dataset(list(range(total)), tuple(k / 100 for k in shares), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == tuple(k * total // 100 for k in shares)

    def test_overdraw_rejected(self):
        records = synth_generate(5, seed=3, languages=["en"])
        with pytest.raises(ValueError, match="available"):
            split_dataset(records, (4, 1, 1), seed=0)
        with pytest.raises(ValueError):
            split_dataset(records, (0.9, 0.9, 0.1), seed=0)


class TestCheckpoint:
    def roundtrip(self, tmp_path):
        corpus = [("en", ("a", "cat")), ("jp", ("neko", "da"))]
        vocab = build_vocab(corpus, min_count=1)
        params = random_params(vocab=len(vocab), seed=13)
        config = {"epochs": 2, "seed": 42, "languages": ["en", "jp"]}
        ckpt = Checkpoint(params, vocab, config, epoch=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        return params, vocab, config, path

    def test_bit_exact_roundtrip(self, tmp_path):
        params, vocab, config, path = self.roundtrip(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 1 and loaded.config == config
        assert (loaded.vocab.id_to_token, loaded.vocab.languages) == (vocab.id_to_token, vocab.languages)
        assert loaded.params.dims == params.dims
        rebuilt = loaded.params
        assert array_bytes(rebuilt) == array_bytes(params) and all(a.dtype == np.float64 for _, a in params.named_parameters())
        feature = np.ones(params.dims.feature)
        a = forward_sequence(feature, (3, 2), 3, params).distributions
        b = forward_sequence(feature, (3, 2), 3, rebuilt).distributions
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), sizes=st.tuples(*[st.integers(1, 4)] * 3), epoch=st.integers(0, 10**6))
    def test_roundtrip_is_bit_exact_for_any_finite_arrays(self, data, sizes, epoch):
        vocab = build_vocab([("en", ("a", "cat"))], min_count=1)
        dims = Dims(len(vocab), *sizes)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        drawn = {
            name: data.draw(arrays(np.float64, shape, elements=finite), label=name)
            for name, shape in param_shapes(dims).items()
        }
        params = ModelParams(dims, **drawn)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, Checkpoint(params, vocab, {"seed": 1}, epoch))
            loaded = load_checkpoint(path)
        assert (loaded.params.dims, loaded.config, loaded.epoch) == (params.dims, {"seed": 1}, epoch)
        assert (loaded.vocab.id_to_token, loaded.vocab.languages) == (vocab.id_to_token, vocab.languages)
        assert array_bytes(loaded.params) == array_bytes(drawn)

    def test_checkpoint_holds_the_given_arrays(self):
        vocab = build_vocab([("en", ("a", "cat"))], min_count=1)
        params = random_params(vocab=len(vocab), seed=2)
        ckpt = checkpoint_from_model(params, vocab, {}, 0)
        assert ckpt.params is params and model_from_checkpoint(ckpt) is params

    def test_rewrite_is_byte_identical(self, tmp_path):
        params, vocab, config, path = self.roundtrip(tmp_path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, load_checkpoint(path))
        assert path.read_bytes() == again.read_bytes()

    def test_failed_save_leaves_the_previous_file_whole(self, tmp_path):
        params, vocab, config, path = self.roundtrip(tmp_path)
        before = path.read_bytes()
        # an object array cannot be written as float64: the save raises mid-file
        broken = ModelParams(**{**vars(params), "w_out": np.full(params.w_out.shape, object(), dtype=object)})
        with pytest.raises(TypeError):
            save_checkpoint(path, Checkpoint(broken, vocab, config, epoch=2))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_every_prefix_is_a_checkpoint_error(self, tmp_path):
        _, _, _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_float_manifest_shape_reads_the_shapes_dims_imply(self, tmp_path):
        # [4.0, 16] == [4, 16] passes the manifest check, so the arrays take
        # their shapes from dims rather than from the header's floats
        params, _, _, path = self.roundtrip(tmp_path)
        odd = tmp_path / "float_shape.ckpt"
        rewrite_checkpoint_header(path, odd, lambda header: header["arrays"][4].update(shape=[4.0, 16.0]))
        assert array_bytes(load_checkpoint(odd).params) == array_bytes(params)

    def test_file_that_shrinks_after_the_size_check_is_refused(self, valid, tmp_path, monkeypatch):
        # every length passes against the size fstat gave, then the reads come up 8 bytes
        # short: without the byte count, b_out would keep np.empty's garbage
        blob = valid["checkpoint"].read_bytes()
        path = tmp_path / "shrunk.ckpt"
        path.write_bytes(blob[:-8])
        monkeypatch.setattr("mlcap.data.os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=len(blob))))
        with pytest.raises(CheckpointError) as refused:
            load_checkpoint(path)
        assert str(refused.value) == f"{path}: truncated inside array 'b_out'"

    # ids these rows ran under before the tables; the table test at the end runs every other row
    test_truncation_detected = row_checks("checkpoint", "cut-4", "cut-10", "cut-half", "cut-3-short")
    test_forged_header_length_refused = row_checks(
        "checkpoint", f"header-length-{2**63 - 1}", f"header-length-{2**64 - 1}", ids=[str(2**63 - 1), str(2**64 - 1)]
    )
    test_consistent_dims_claiming_huge_arrays_refused = row_checks(
        "checkpoint", "huge-dims-terabytes", "huge-dims-past-int64", "huge-dims-past-float", ids=["terabytes", "past-int64", "past-float"]
    )
    test_vocabulary_length_must_follow_dims = row_checks("checkpoint", "vocab-short", "vocab-long", ids=["short", "long"])
    test_vocabulary_must_follow_the_dataset_text_rules = row_checks(
        "checkpoint", "token-line-break", "token-empty", "token-space", "lang-space", "lang-comma", "token-lone-surrogate",
        ids=["line-break", "empty", "space", "lang-space", "lang-comma", "lone-surrogate"],
    )
    test_epoch_must_be_a_non_negative_int = row_checks(
        "checkpoint", "epoch-float", "epoch-true", "epoch-negative", "epoch-string", ids=["2.7", "True", "-1", "3"]
    )
    test_array_shape_must_follow_dims = row_checks("checkpoint", "array-shape")
    test_non_finite_array_refused = row_checks("checkpoint", "non-finite-array")


class TestSynth:
    def test_feature_encodes_attribute_pair(self):
        records = synth_generate(50, seed=4, languages=["en"])
        for rec in records:
            hot = np.where(rec.feature > 0.5)[0]
            assert hot.size == 1
            assert np.abs(rec.feature - (np.arange(16) == hot[0])).max() <= 0.05 + 1e-12

    def test_caption_tables_and_templates(self):
        records = synth_generate(200, seed=5, languages=["en", "jp"])
        en_first = {r.captions[0].tokens[0] for r in records}
        assert en_first == {"a"}
        jp_last = {r.captions[1].tokens[-1] for r in records}
        assert jp_last == {"desu"}
        # caption pair determines the one-hot slot and vice versa
        by_slot = {}
        for rec in records:
            slot = int(np.argmax(rec.feature))
            sentence = (rec.captions[0].tokens, rec.captions[1].tokens)
            assert by_slot.setdefault(slot, sentence) == sentence
        by_sentence = {}
        for rec in records:
            slot = int(np.argmax(rec.feature))
            sentence = (rec.captions[0].tokens, rec.captions[1].tokens)
            assert by_sentence.setdefault(sentence, slot) == slot

    def test_extra_languages_get_disjoint_words(self):
        records = synth_generate(30, seed=6, languages=["en", "jp", "de", "fr"])
        words = {}
        for lang_index, lang in enumerate(["en", "jp", "de", "fr"]):
            words[lang] = {t for r in records for t in r.captions[lang_index].tokens}
        for a in words:
            for b in words:
                if a != b:
                    assert not (words[a] & words[b])

    def test_seeded_and_validated(self):
        a = synth_generate(5, seed=7, languages=["en"])
        b = synth_generate(5, seed=7, languages=["en"])
        for x, y in zip(a, b):
            npt.assert_array_equal(x.feature, y.feature)
            assert x.captions == y.captions
        with pytest.raises(ValueError):
            synth_generate(0, seed=0, languages=["en"])
        with pytest.raises(ValueError, match="duplicate"):
            synth_generate(3, seed=0, languages=["en", "en"])


# the table test: every row that no test named above runs
@pytest.mark.parametrize("kind, row", [(kind, row) for kind, row, _ in unnamed({"dataset": ["loader"], "checkpoint": ["loader"]})])
def test_loaders_refuse_each_malformed_file(valid, tmp_path, kind, row):
    check_row(kind, row, "loader", valid, tmp_path)
