"""End-to-end checks of the command-line entry points."""

import contextlib
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from mlcap import cli, trainer
from mlcap.trainer import TrainConfig
from mlcap.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_GRADCHECK, EXIT_OK, EXIT_USAGE, main
from mlcap.data import (
    Caption,
    Checkpoint,
    ImageRecord,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from mlcap.vocab import EOS_ID, build_vocab
from oracles import forward_sequence
from tinymodels import NEG_BIG, break_surface_tokens, claim_dims, prefix_free_params, rewrite_checkpoint_header


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic dataset plus one tiny trained run, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    assert main(["synth", "--out", str(data), "--n", "40", "--seed", "11"]) == EXIT_OK
    out = root / "run"
    code = main(
        [
            "train", "--data", str(data), "--out", str(out),
            "--split", "30,5,5", "--epochs", "2", "--batch", "8",
            "--hidden", "10", "--embed", "8", "--min-count", "1",
            "--seed", "4", "--best-only",
        ]
    )
    assert code == EXIT_OK
    return {"root": root, "data": data, "run": out}


def retag_jp(workdir, path, code):
    """The shared dataset, written to ``path`` with every jp caption tagged ``code``."""
    def retag(caption):
        return Caption(code, caption.tokens) if caption.language == "jp" else caption

    records = load_dataset(workdir["data"])
    save_dataset([ImageRecord(r.image_id, r.feature, tuple(map(retag, r.captions))) for r in records], path)
    return path


def fail_writes_to(monkeypatch, name):
    """Make the command's ``atomic_open`` of a file called ``name`` write half
    of its first chunk and then raise, as a full disk would."""
    real = cli.atomic_open

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    @contextlib.contextmanager
    def failing(path, mode="w", **kwargs):
        with real(path, mode, **kwargs) as fh:
            yield HalfWrite(fh) if str(path).endswith(name) else fh

    monkeypatch.setattr(cli, "atomic_open", failing)


def assert_left_as_before(path, before: bytes):
    assert path.read_bytes() == before
    assert not path.with_name(path.name + ".partial").exists()


class TestSynth:
    def test_writes_records_and_manifest(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert main(["synth", "--out", str(out), "--n", "7", "--seed", "3"]) == EXIT_OK
        records = load_dataset(out)
        assert len(records) == 7
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["options"]["seed"] == 3
        assert str(out) in manifest["outputs"]

    def test_language_override(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert main(["synth", "--out", str(out), "--n", "3", "--langs", "de,en,fr"]) == EXIT_OK
        langs = {c.language for r in load_dataset(out) for c in r.captions}
        assert langs == {"de", "en", "fr"}

    def test_repeated_language_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert main(["synth", "--out", str(out), "--n", "3", "--langs", "en,en"]) == EXIT_USAGE
        assert "repeats a language code" in capsys.readouterr().err
        assert not out.exists()


class TestBuildVocab:
    def test_writes_token_table(self, workdir, tmp_path):
        out = tmp_path / "vocab.tsv"
        code = main(
            ["build-vocab", "--data", str(workdir["data"]), "--out", str(out), "--min-count", "1"]
        )
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert [r[1] for r in rows[:5]] == ["<pad>", "<unk>", "<eos>", "<en>", "<jp>"]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))

    def test_min_count_prunes(self, workdir, tmp_path):
        out_all = tmp_path / "all.tsv"
        out_cut = tmp_path / "cut.tsv"
        main(["build-vocab", "--data", str(workdir["data"]), "--out", str(out_all), "--min-count", "1"])
        main(["build-vocab", "--data", str(workdir["data"]), "--out", str(out_cut), "--min-count", "1000"])
        assert len(out_cut.read_text().splitlines()) < len(out_all.read_text().splitlines())

    def test_failed_table_write_leaves_the_previous_table(self, workdir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "vocab.tsv"
        out.write_bytes(b"0\tolder\n")
        fail_writes_to(monkeypatch, "vocab.tsv")
        code = main(["build-vocab", "--data", str(workdir["data"]), "--out", str(out), "--min-count", "1"])
        assert code == EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert_left_as_before(out, b"0\tolder\n")

    def test_failed_manifest_write_leaves_the_previous_manifest(self, workdir, tmp_path, monkeypatch):
        out = tmp_path / "vocab.tsv"
        manifest = tmp_path / "vocab.tsv.manifest.json"
        manifest.write_bytes(b"{}\n")
        fail_writes_to(monkeypatch, ".manifest.json")
        code = main(["build-vocab", "--data", str(workdir["data"]), "--out", str(out), "--min-count", "1"])
        assert code == EXIT_DATA
        assert out.read_text().startswith("0\t<pad>\n")
        assert_left_as_before(manifest, b"{}\n")

    def test_bad_min_count_is_usage_error_before_reading_data(self, tmp_path):
        code = main(
            ["build-vocab", "--data", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "v"), "--min-count", "0"]
        )
        assert code == EXIT_USAGE

    def test_lang_whose_start_token_is_a_control_token_is_data_error(self, workdir, tmp_path, capsys):
        data = retag_jp(workdir, tmp_path / "tagged.jsonl", "pad")
        out = tmp_path / "vocab.tsv"
        assert main(["build-vocab", "--data", str(data), "--out", str(out)]) == EXIT_DATA
        assert "tagged.jsonl:1: captions[1] lang 'pad' is reserved" in capsys.readouterr().err
        assert not out.exists()

    def test_unmatched_language_filter_fails(self, workdir, tmp_path):
        code = main(
            ["build-vocab", "--data", str(workdir["data"]), "--out", str(tmp_path / "v"), "--langs", "xx"]
        )
        assert code == EXIT_DATA


class TestTrain:
    def test_outputs_and_log_shape(self, workdir):
        run = workdir["run"]
        assert (run / "best.ckpt").exists()
        log_rows = (run / "train_log.tsv").read_text().splitlines()
        assert len(log_rows) == 2
        for row in log_rows:
            fields = row.split("\t")
            assert len(fields) == 4
            float(fields[1]), float(fields[2]), float(fields[3])
        manifest = json.loads((run / "manifest.json").read_text())
        assert str(run / "best.ckpt") in manifest["outputs"]
        assert not list(run.glob("epoch_*.ckpt"))

    def test_epoch_checkpoints_unless_best_only(self, workdir, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "train", "--data", str(workdir["data"]), "--out", str(out),
                "--split", "30,5,5", "--epochs", "2", "--batch", "8",
                "--hidden", "10", "--embed", "8", "--min-count", "1", "--seed", "4",
            ]
        )
        assert code == EXIT_OK
        assert {p.name for p in out.glob("epoch_*.ckpt")} == {"epoch_000.ckpt", "epoch_001.ckpt"}

    def test_reruns_are_byte_identical(self, workdir, tmp_path):
        args = [
            "train", "--data", str(workdir["data"]), "--split", "30,5,5",
            "--epochs", "2", "--batch", "8", "--hidden", "10", "--embed", "8",
            "--min-count", "1", "--seed", "4", "--best-only",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()

    def test_checkpoint_restores_a_working_model(self, workdir):
        ckpt = load_checkpoint(workdir["run"] / "best.ckpt")
        params = ckpt.params
        feature = np.zeros(params.dims.feature)
        trace = forward_sequence(feature, (EOS_ID,), ckpt.vocab.start_id("en"), params)
        assert len(trace.distributions) == 1

    def test_divergence_exits_with_its_own_code(self, workdir, tmp_path, monkeypatch, capsys):
        # a step size near the float64 limit overflows the second batch
        monkeypatch.setattr(trainer, "ADAM_ALPHA", 1e308)
        args = [
            "train", "--data", str(workdir["data"]), "--out", str(tmp_path / "run"),
            "--split", "30,5,5", "--epochs", "2", "--batch", "8", "--hidden", "4",
            "--embed", "4", "--min-count", "1",
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(args)
        assert code == EXIT_DIVERGED
        assert "training diverged: non-finite loss or gradient in epoch 0, batch 1" in capsys.readouterr().err

    def test_failed_rerun_leaves_no_earlier_best_or_manifest(self, workdir, tmp_path, monkeypatch):
        # a directory with a manifest always holds a finished run: a run that
        # diverges into the directory of a good one removes that run's
        # best.ckpt and manifest.json before its first epoch
        out = tmp_path / "run"
        args = [
            "train", "--data", str(workdir["data"]), "--out", str(out), "--split", "30,5,5",
            "--batch", "8", "--hidden", "4", "--embed", "4", "--min-count", "1",
        ]
        assert main(args + ["--epochs", "3"]) == EXIT_OK
        assert (out / "best.ckpt").exists() and (out / "manifest.json").exists()
        monkeypatch.setattr(trainer, "ADAM_ALPHA", 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args + ["--epochs", "2"]) == EXIT_DIVERGED
        assert not (out / "best.ckpt").exists()
        assert not (out / "manifest.json").exists()
        assert (out / "train_log.tsv").read_text() == ""

    @pytest.mark.parametrize(
        "second_flags, epoch_files",
        [([], {"epoch_000.ckpt", "epoch_001.ckpt"}), (["--best-only"], set())],
        ids=["with-epochs", "best-only"],
    )
    def test_rerun_leaves_only_its_own_files(self, workdir, tmp_path, second_flags, epoch_files):
        out = tmp_path / "run"
        args = [
            "train", "--data", str(workdir["data"]), "--out", str(out), "--split", "30,5,5",
            "--batch", "8", "--hidden", "4", "--embed", "4", "--min-count", "1",
        ]
        assert main(args + ["--epochs", "3"]) == EXIT_OK
        assert (out / "epoch_002.ckpt").exists()
        # only the names save_epoch writes are the run's: these are someone else's
        bystanders = ["epoch_1.ckpt", "epoch_002.ckpt.bak", "epoch_abc.ckpt", "notes.txt"]
        for name in bystanders:
            (out / name).write_bytes(b"kept")
        assert main(args + ["--epochs", "2"] + second_flags) == EXIT_OK
        own = {"best.ckpt", "train_log.tsv", "manifest.json"} | epoch_files
        assert {p.name for p in out.iterdir()} == own | set(bystanders)
        manifest = json.loads((out / "manifest.json").read_text())
        assert {Path(p).name for p in manifest["outputs"]} == own - {"manifest.json"}

    def test_oversubscribed_split_fails(self, workdir, tmp_path):
        code = main(
            [
                "train", "--data", str(workdir["data"]), "--out", str(tmp_path / "r"),
                "--split", "1000,5,5", "--epochs", "1", "--min-count", "1",
            ]
        )
        assert code == EXIT_DATA

    def test_no_validation_split_is_data_error_before_training(self, workdir, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(
            [
                "train", "--data", str(workdir["data"]), "--out", str(out), "--split", "30,0,5",
                "--epochs", "1", "--hidden", "4", "--embed", "4", "--min-count", "1",
            ]
        )
        assert code == EXIT_DATA
        assert "no validation captions" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("extra", [["--split", "30,0,5"], ["--split", "30,5,5", "--langs", "xx"]])
    def test_refused_run_leaves_no_out_directory(self, workdir, tmp_path, extra):
        out = tmp_path / "r"
        code = main(
            ["train", "--data", str(workdir["data"]), "--out", str(out), "--epochs", "1", "--min-count", "1"] + extra
        )
        assert code == EXIT_DATA
        assert not out.exists()

    def test_manifest_records_protocol_defaults(self, workdir, tmp_path, monkeypatch):
        # with only --data and --out given, the parsed config is TrainConfig's defaults
        configs = []

        def refuse(split, config):
            configs.append(config)
            raise ValueError("stop before training")

        monkeypatch.setattr(cli, "training_languages", refuse)
        assert main(["train", "--data", str(workdir["data"]), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert configs == [TrainConfig()]
        # the shared run recorded its overridden values under TrainConfig's field names
        options = json.loads((workdir["run"] / "manifest.json").read_text())["options"]
        assert (options["epochs"], options["batch_size"], options["seed"]) == (2, 8, 4)
        assert options["split"] == [30, 5, 5] and options["loss_mode"] == "mean"
        assert "beam" not in options and options["languages"] is None

    def test_caption_language_that_langs_cannot_name_is_data_error(self, workdir, tmp_path, capsys):
        # a code holding a comma would train, then no --langs could name it
        data = retag_jp(workdir, tmp_path / "tagged.jsonl", "jp,x")
        out = tmp_path / "r"
        code = main(["train", "--data", str(data), "--out", str(out), "--split", "30,5,5", "--min-count", "1"])
        assert code == EXIT_DATA
        assert "tagged.jsonl:1: captions[1] lang 'jp,x' must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lang", ["pad", "unk", "eos"])
    def test_lang_whose_start_token_is_a_control_token_is_data_error(self, workdir, tmp_path, capsys, lang):
        data = retag_jp(workdir, tmp_path / "tagged.jsonl", lang)
        out = tmp_path / "r"
        code = main(["train", "--data", str(data), "--out", str(out), "--split", "30,5,5", "--min-count", "1"])
        assert code == EXIT_DATA
        assert f"tagged.jsonl:1: captions[1] lang '{lang}' is reserved" in capsys.readouterr().err
        assert not out.exists()

    def test_lone_surrogate_in_a_token_names_file_and_line(self, workdir, tmp_path, capsys):
        # the escape parses to a lone surrogate, which no checkpoint header can be encoded with
        lines = workdir["data"].read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[1])
        row["captions"][0]["tokens"][-1] = "SURROGATE"
        lines[1] = json.dumps(row).replace("SURROGATE", "circ\\ud800le")
        data = tmp_path / "escaped.jsonl"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "r"
        out.mkdir()
        code = main(
            [
                "train", "--data", str(data), "--out", str(out), "--split", "30,5,5", "--epochs", "1",
                "--hidden", "4", "--embed", "4", "--min-count", "1",
            ]
        )
        assert code == EXIT_DATA
        assert f"{data}:2: holds a lone surrogate" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestCaption:
    def test_one_line_per_record(self, workdir, tmp_path):
        out = tmp_path / "cap.tsv"
        code = main(
            [
                "caption", "--ckpt", str(workdir["run"] / "best.ckpt"),
                "--data", str(workdir["data"]), "--out", str(out),
                "--lang", "en", "--beam", "2", "--max-len", "6",
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 40
        ids = [line.split("\t", 1)[0] for line in lines]
        assert ids == [r.image_id for r in load_dataset(workdir["data"])]

    def test_length_norm_reaches_the_decoder(self, workdir, tmp_path):
        # p(eos) = .45 and p(a) = .55 at every step: at --max-len 2 the raw sums rank
        # [eos], the empty caption, first, and the per-token means rank [a, a] first
        records = load_dataset(workdir["data"])
        features = [r.feature for r in records]
        vocab = build_vocab([("en", ("a",))], min_count=1)
        params = prefix_free_params([NEG_BIG, NEG_BIG, np.log(0.45), NEG_BIG, np.log(0.55)], feature=features[0].size)
        save_checkpoint(tmp_path / "flat.ckpt", Checkpoint(params, vocab, {}, 0))
        out = tmp_path / "cap.tsv"
        code = main(
            [
                "caption", "--ckpt", str(tmp_path / "flat.ckpt"), "--data", str(workdir["data"]),
                "--out", str(out), "--lang", "en", "--beam", "2", "--max-len", "2", "--length-norm",
            ]
        )
        assert code == EXIT_OK
        normed = trainer.decode_images(params, vocab, features, "en", 2, 2, length_norm=True)
        assert normed == [["a", "a"]] * 40 and trainer.decode_images(params, vocab, features, "en", 2, 2) == [[]] * 40
        assert out.read_text() == "".join(f"{r.image_id}\t{' '.join(tokens)}\n" for r, tokens in zip(records, normed))
        assert json.loads((tmp_path / "cap.tsv.manifest.json").read_text())["options"]["length_norm"] is True

    def test_unknown_language_is_usage_error(self, workdir, tmp_path):
        code = main(
            [
                "caption", "--ckpt", str(workdir["run"] / "best.ckpt"),
                "--data", str(workdir["data"]), "--out", str(tmp_path / "c"),
                "--lang", "xx",
            ]
        )
        assert code == EXIT_USAGE

    def test_feature_width_mismatch_is_data_error(self, workdir, tmp_path):
        records = load_dataset(workdir["data"])
        bad = tmp_path / "bad.jsonl"
        shrunk = [
            type(records[0])(r.image_id, r.feature[:4], r.captions) for r in records[:2]
        ]
        save_dataset(shrunk, bad)
        code = main(
            [
                "caption", "--ckpt", str(workdir["run"] / "best.ckpt"),
                "--data", str(bad), "--out", str(tmp_path / "c"), "--lang", "en",
            ]
        )
        assert code == EXIT_DATA
        assert not (tmp_path / "c").exists()

    def test_image_id_holding_a_tab_is_data_error(self, workdir, tmp_path, capsys):
        # evaluate splits each caption line at its first tab, so an id 'a<TAB>x'
        # would read back as image 'a' with a leading token 'x'
        records = load_dataset(workdir["data"])
        bad_id = records[1].image_id + "\tx"
        records[1] = ImageRecord(bad_id, records[1].feature, records[1].captions)
        data = tmp_path / "tabbed.jsonl"
        save_dataset(records, data)
        out = tmp_path / "cap.tsv"
        code = main(
            [
                "caption", "--ckpt", str(workdir["run"] / "best.ckpt"), "--data", str(data),
                "--out", str(out), "--lang", "en",
            ]
        )
        assert code == EXIT_DATA
        assert f"tabbed.jsonl:2: image_id {bad_id!r} holds a tab or line break" in capsys.readouterr().err
        assert not out.exists()
        cands = tmp_path / "cands.tsv"
        cands.write_text(f"{records[0].image_id}\ta red circle\n")
        assert main(["evaluate", "--data", str(data), "--cands", str(cands), "--langs", "en"]) == EXIT_DATA

    @pytest.mark.parametrize("flag", ["--beam", "--max-len"])
    def test_bad_decode_flag_is_usage_error_before_reading_files(self, tmp_path, flag):
        code = main(
            [
                "caption", "--ckpt", str(tmp_path / "missing.ckpt"),
                "--data", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "c"),
                "--lang", "en", flag, "0",
            ]
        )
        assert code == EXIT_USAGE
        assert not (tmp_path / "c").exists()

    def caption_with(self, workdir, tmp_path, ckpt_path):
        return main(
            [
                "caption", "--ckpt", str(ckpt_path), "--data", str(workdir["data"]),
                "--out", str(tmp_path / "c"), "--lang", "en",
            ]
        )

    def test_non_finite_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        ckpt = load_checkpoint(workdir["run"] / "best.ckpt")
        ckpt.params.w_out[:] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, ckpt)
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "array 'w_out' holds non-finite values" in capsys.readouterr().err

    def test_manifest_entry_without_name_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "noname.ckpt"
        rewrite_checkpoint_header(
            workdir["run"] / "best.ckpt", bad, lambda header: header["arrays"][2].pop("name")
        )
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "invalid array manifest" in capsys.readouterr().err

    def test_vocabulary_shorter_than_dims_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "short_vocab.ckpt"
        rewrite_checkpoint_header(
            workdir["run"] / "best.ckpt", bad, lambda header: header["vocab"]["tokens"].__delitem__(slice(8, None))
        )
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "header lists 8 vocabulary tokens" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_non_int_dims_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "float_dims.ckpt"
        rewrite_checkpoint_header(
            workdir["run"] / "best.ckpt", bad, lambda header: header["dims"].update(hidden=10.0)
        )
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "dims.hidden must be a positive int, got 10.0" in capsys.readouterr().err

    def test_non_string_vocabulary_token_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "int_token.ckpt"
        rewrite_checkpoint_header(
            workdir["run"] / "best.ckpt", bad, lambda header: header["vocab"]["tokens"].__setitem__(-1, 5)
        )
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "tokens and languages must be strings" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_vocabulary_token_holding_a_line_break_is_data_error(self, workdir, tmp_path, capsys):
        # each caption line would split into three, which evaluate then refuses
        bad = tmp_path / "broken_tokens.ckpt"
        rewrite_checkpoint_header(workdir["run"] / "best.ckpt", bad, break_surface_tokens)
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "tokens must be non-empty and hold no whitespace" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["broken_tokens.ckpt"]

    def test_non_object_config_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "list_config.ckpt"
        rewrite_checkpoint_header(
            workdir["run"] / "best.ckpt", bad, lambda header: header.update(config=["x"])
        )
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_non_bool_feature_l2norm_is_data_error(self, workdir, tmp_path, capsys, value):
        # otherwise a truthy non-bool would silently normalize every feature
        bad = tmp_path / "l2norm.ckpt"
        rewrite_checkpoint_header(
            workdir["run"] / "best.ckpt", bad, lambda header: header["config"].update(feature_l2norm=value)
        )
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert f"config.feature_l2norm must be true or false, got {value!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l2norm.ckpt"]

    def test_missing_feature_l2norm_means_false(self, workdir, tmp_path):
        best = workdir["run"] / "best.ckpt"
        bare = tmp_path / "bare.ckpt"
        rewrite_checkpoint_header(best, bare, lambda header: header["config"].clear())
        (tmp_path / "with_config").mkdir()
        assert self.caption_with(workdir, tmp_path / "with_config", best) == EXIT_OK
        assert self.caption_with(workdir, tmp_path, bare) == EXIT_OK
        assert (tmp_path / "c").read_bytes() == (tmp_path / "with_config" / "c").read_bytes()

    def test_decode_failure_leaves_no_output_behind(self, workdir, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("non-finite log-probabilities at decode step 2")

        monkeypatch.setattr(cli, "decode_images", fail)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert self.caption_with(workdir, fresh, workdir["run"] / "best.ckpt") == EXIT_DATA
        assert "non-finite log-probabilities" in capsys.readouterr().err
        assert list(fresh.iterdir()) == []

        existing = tmp_path / "c"
        existing.write_bytes(b"img-0\tan older caption\n")
        assert self.caption_with(workdir, tmp_path, workdir["run"] / "best.ckpt") == EXIT_DATA
        assert existing.read_bytes() == b"img-0\tan older caption\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "fresh"]

    def test_array_shape_disagreeing_with_dims_is_data_error(self, workdir, tmp_path, capsys):
        ckpt = load_checkpoint(workdir["run"] / "best.ckpt")
        ckpt.params.w_out = np.zeros((ckpt.params.dims.hidden + 1, ckpt.params.dims.vocab))
        bad = tmp_path / "shape.ckpt"
        save_checkpoint(bad, ckpt)
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("forge", ["truncated", "header_length", "huge_dims"])
    def test_forged_lengths_are_data_errors(self, workdir, tmp_path, capsys, forge):
        best = workdir["run"] / "best.ckpt"
        blob = best.read_bytes()
        bad = tmp_path / "forged.ckpt"
        if forge == "truncated":
            bad.write_bytes(blob[: len(blob) // 2])
        elif forge == "header_length":
            bad.write_bytes(blob[:6] + (2**63 - 1).to_bytes(8, "little") + blob[14:])
        else:
            rewrite_checkpoint_header(best, bad, lambda header: claim_dims(header, hidden=10**400))
        assert self.caption_with(workdir, tmp_path, bad) == EXIT_DATA
        assert "truncated inside" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["forged.ckpt"]

    def test_non_number_feature_is_data_error(self, workdir, tmp_path, capsys):
        data = tmp_path / "strings.jsonl"
        data.write_text('{"image_id": "i0", "feature": ["1.5", true, 2]}\n')
        code = main(
            [
                "caption", "--ckpt", str(workdir["run"] / "best.ckpt"), "--data", str(data),
                "--out", str(tmp_path / "c"), "--lang", "en",
            ]
        )
        assert code == EXIT_DATA
        assert "strings.jsonl:1: image_id 'i0' has a non-numeric feature" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_missing_checkpoint_is_data_error(self, workdir, tmp_path):
        code = main(
            [
                "caption", "--ckpt", str(tmp_path / "nope.ckpt"),
                "--data", str(workdir["data"]), "--out", str(tmp_path / "c"), "--lang", "en",
            ]
        )
        assert code == EXIT_DATA


class TestEvaluate:
    def _reference_candidates(self, workdir, tmp_path, lang):
        path = tmp_path / f"ref_{lang}.tsv"
        with path.open("w") as fh:
            for rec in load_dataset(workdir["data"]):
                caption = next(c for c in rec.captions if c.language == lang)
                fh.write(f"{rec.image_id}\t{' '.join(caption.tokens)}\n")
        return path

    def test_perfect_candidates_score_high(self, workdir, tmp_path, capsys):
        en = self._reference_candidates(workdir, tmp_path, "en")
        jp = self._reference_candidates(workdir, tmp_path, "jp")
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate", "--data", str(workdir["data"]),
                "--cands", f"{en},{jp}", "--langs", "en,jp",
                "--out", str(report_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert json.loads(capsys.readouterr().out) == report
        for lang in ("en", "jp"):
            scores = report["per_language"][lang]
            assert scores["bleu1"] == 1.0
            assert scores["images"] == 40
            assert 0.5 < scores["cider"] <= 1.0
        assert report["overall"]["images"] == 80

    def test_failed_report_write_leaves_the_previous_report(self, workdir, tmp_path, monkeypatch):
        en = self._reference_candidates(workdir, tmp_path, "en")
        report_path = tmp_path / "report.json"
        report_path.write_bytes(b'{"older": true}\n')
        fail_writes_to(monkeypatch, "report.json")
        code = main(
            ["evaluate", "--data", str(workdir["data"]), "--cands", str(en), "--langs", "en", "--out", str(report_path)]
        )
        assert code == EXIT_DATA
        assert_left_as_before(report_path, b'{"older": true}\n')
        assert not (tmp_path / "report.json.manifest.json").exists()

    def test_cands_langs_mismatch(self, workdir, tmp_path):
        en = self._reference_candidates(workdir, tmp_path, "en")
        code = main(["evaluate", "--data", str(workdir["data"]), "--cands", str(en), "--langs", "en,jp"])
        assert code == EXIT_USAGE

    def test_repeated_language_is_usage_error(self, workdir, tmp_path, capsys):
        en = self._reference_candidates(workdir, tmp_path, "en")
        jp = self._reference_candidates(workdir, tmp_path, "jp")
        report = tmp_path / "report.json"
        code = main(
            [
                "evaluate", "--data", str(workdir["data"]), "--cands", f"{en},{jp}",
                "--langs", "en,en", "--out", str(report),
            ]
        )
        assert code == EXIT_USAGE
        assert "repeats a language code" in capsys.readouterr().err
        assert not report.exists()

    def test_crlf_candidates_score_as_lf_candidates(self, workdir, tmp_path, capsys):
        en = self._reference_candidates(workdir, tmp_path, "en")
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(en.read_bytes().replace(b"\n", b"\r\n"))
        reports = []
        for cands in (en, crlf):
            assert main(["evaluate", "--data", str(workdir["data"]), "--cands", str(cands), "--langs", "en"]) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("line", [1, 2])
    def test_candidates_that_are_not_utf8_name_file_and_line(self, workdir, tmp_path, capsys, line):
        # line 1 starts with a UTF-16 byte-order mark; line 2 of a CRLF file holds a Latin-1 byte
        lines = self._reference_candidates(workdir, tmp_path, "en").read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff\xfe" + lines[line - 1] if line == 1 else lines[line - 1].replace(b"\t", b"\tcaf\xe9 ")
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"".join(lines).replace(b"\n", b"\r\n"))
        report = tmp_path / "report.json"
        code = main(["evaluate", "--data", str(workdir["data"]), "--cands", str(bad), "--langs", "en", "--out", str(report)])
        assert code == EXIT_DATA
        assert f"{bad}:{line}: not UTF-8 text" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.tsv", "ref_en.tsv"]

    def test_unknown_image_id_fails(self, workdir, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no-such-image\ta red circle\n")
        code = main(["evaluate", "--data", str(workdir["data"]), "--cands", str(bad), "--langs", "en"])
        assert code == EXIT_DATA

    def test_reference_token_holding_whitespace_is_data_error(self, tmp_path, capsys):
        # "New York" as one token cannot match a caption read back split on
        # whitespace, so the exact caption would score BLEU-2..4 of zero
        data = tmp_path / "refs.jsonl"
        row = {"image_id": "i0", "feature": [0.0], "captions": [{"lang": "en", "tokens": ["a", "New York", "cab"]}]}
        data.write_text(json.dumps(row) + "\n")
        cands = tmp_path / "cands.tsv"
        cands.write_text("i0\ta New York cab\n")
        assert main(["evaluate", "--data", str(data), "--cands", str(cands), "--langs", "en"]) == EXIT_DATA
        assert "refs.jsonl:1: captions[0] tokens must be non-empty and hold no whitespace" in capsys.readouterr().err

    def test_lowercase_applies_to_candidates_too(self, tmp_path, capsys):
        # exact candidates score the same with and without the flag
        data = tmp_path / "refs.jsonl"
        rows = [
            {"image_id": "i0", "feature": [0.0], "captions": [{"lang": "en", "tokens": ["A", "Red", "Circle"]}]},
            {"image_id": "i1", "feature": [1.0], "captions": [{"lang": "en", "tokens": ["Blue", "Star"]}]},
        ]
        data.write_text("".join(json.dumps(r) + "\n" for r in rows))
        cands = tmp_path / "cands.tsv"
        cands.write_text("i0\tA Red Circle\ni1\tBlue Star\n")
        reports = []
        for extra in ([], ["--lowercase"]):
            assert main(["evaluate", "--data", str(data), "--cands", str(cands), "--langs", "en", *extra]) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1] == reports[0]
        assert reports[1]["per_language"]["en"]["bleu1"] == 1.0
        assert reports[1]["per_language"]["en"]["cider"] > 0.5

    def test_identity_corpus_scores_one_everywhere(self, tmp_path, capsys):
        # two images with disjoint four-token captions: every n-gram order
        # has a nonzero tf-idf vector, so exact candidates are perfect
        data = tmp_path / "refs.jsonl"
        rows = [
            {"image_id": "i0", "feature": [0.0], "captions": [{"lang": "en", "tokens": ["a", "b", "c", "d"]}]},
            {"image_id": "i1", "feature": [1.0], "captions": [{"lang": "en", "tokens": ["e", "f", "g", "h"]}]},
        ]
        data.write_text("".join(json.dumps(r) + "\n" for r in rows))
        cands = tmp_path / "cands.tsv"
        cands.write_text("i0\ta b c d\ni1\te f g h\n")
        assert main(["evaluate", "--data", str(data), "--cands", str(cands), "--langs", "en"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        scores = report["per_language"]["en"]
        for key in ("bleu1", "bleu2", "bleu3", "bleu4"):
            assert scores[key] == 1.0
        assert abs(scores["cider"] - 1.0) < 1e-12


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("  ok") == 2
        assert "lstm_sequence" in out and "sequence_loss" in out

    def test_fails_at_impossible_tolerance(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-15"]) == EXIT_GRADCHECK

    def test_seed_only_varies_op_inputs(self, capsys):
        assert main(["gradcheck", "--seed", "99"]) == EXIT_OK

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tolerance):
        assert main(["gradcheck", "--tolerance", tolerance]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "argument --tolerance: must be finite and positive" in err


class TestParsing:
    @pytest.mark.parametrize(
        "args",
        [
            ["build-vocab", "--data", "d", "--out", "o"],
            ["caption", "--ckpt", "c", "--data", "d", "--out", "o", "--lang", "en"],
            ["evaluate", "--data", "d", "--cands", "c"],
        ],
        ids=["build-vocab", "caption", "evaluate"],
    )
    def test_seed_only_on_commands_that_draw_randomness(self, args, capsys):
        # these commands draw no randomness, so they take no --seed
        assert main(args + ["--seed", "1"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["synth"]) == EXIT_USAGE

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK

    # every command's files are missing, so a handler that ran would exit 3, not 2
    COMMANDS = {
        "synth": ["--out", "out.jsonl"],
        "build-vocab": ["--data", "missing.jsonl", "--out", "vocab.tsv"],
        "train": ["--data", "missing.jsonl", "--out", "run"],
        "caption": ["--ckpt", "missing.ckpt", "--data", "missing.jsonl", "--out", "cap.tsv", "--lang", "en"],
        "evaluate": ["--data", "missing.jsonl", "--cands", "en.tsv,jp.tsv", "--out", "report.json"],
        "gradcheck": [],
    }
    BAD_FLAGS = [
        ("synth", "--n", "0", "must be >= 1"),
        ("synth", "--seed", "-1", "must be >= 0"),
        ("synth", "--langs", "en,en", "repeats a language code"),
        ("synth", "--langs", "en,", "lang '' must be non-empty, without comma or whitespace"),
        ("synth", "--langs", "en,j\tp", "must be non-empty, without comma or whitespace"),
        # the start tokens <pad>, <unk> and <eos> are control tokens
        *[("synth", "--langs", f"{code},en", f"lang {code!r} is reserved") for code in ("pad", "unk", "eos")],
        ("train", "--langs", "en,eos", "lang 'eos' is reserved"),
        ("build-vocab", "--min-count", "0", "must be >= 1"),
        ("build-vocab", "--langs", "en,en", "repeats a language code"),
        *[
            ("train", flag, "0", "must be >= 1")
            for flag in ("--epochs", "--batch", "--hidden", "--embed", "--min-count", "--val-beam", "--max-len")
        ],
        ("train", "--epochs", "2.5", "expected int"),
        ("train", "--seed", "-1", "must be >= 0"),
        ("train", "--split", "1,2", "exactly three parts"),
        ("train", "--split", "0.5,nan,0", "must be finite"),
        ("train", "--split", "0.6,0.6,0", "sum to <= 1"),
        ("train", "--split", "30,-1,5", "counts must be non-negative"),
        ("train", "--split", "a,b,c", "could not convert"),
        ("train", "--langs", "en,en", "repeats a language code"),
        ("caption", "--beam", "0", "must be >= 1"),
        ("caption", "--max-len", "0", "must be >= 1"),
        ("evaluate", "--langs", "en,en", "repeats a language code"),
        ("gradcheck", "--seed", "-1", "must be >= 0"),
        *[("gradcheck", "--tolerance", v, "must be finite and positive") for v in ("nan", "inf", "0", "-0.5")],
        ("gradcheck", "--tolerance", "tight", "expected float"),
    ]

    @pytest.mark.parametrize("command,flag,value,rule", BAD_FLAGS, ids=[f"{c}:{f}={v}" for c, f, v, _ in BAD_FLAGS])
    def test_bad_flag_value_exits_2_before_any_file_is_touched(
        self, tmp_path, monkeypatch, capsys, command, flag, value, rule
    ):
        monkeypatch.chdir(tmp_path)
        assert main([command, *self.COMMANDS[command], flag, value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"mlcap {command}: error: argument {flag}: " in err and rule in err
        assert list(tmp_path.iterdir()) == []
