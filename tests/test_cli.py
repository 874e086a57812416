"""End-to-end checks of the command-line entry points."""

import contextlib
import errno
import json
from functools import partial
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
    l2_normalize_records,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from mlcap.vocab import EOS_ID, build_vocab
import malformed
from malformed import TABLES, forge, rewrite_checkpoint_header, unnamed, valid, write_jsonl
from oracles import forward_sequence
from tinymodels import NEG_BIG, prefix_free_params, wide_params

READERS = {"dataset": ["build-vocab", "train", "caption", "evaluate"], "checkpoint": ["caption"], "candidates": ["evaluate"]}
# the tiny run most tests make; a test passes only the flags it is about
TINY = {
    "build-vocab": {"min-count": 1},
    "train": {"split": "30,5,5", "epochs": 1, "batch": 8, "hidden": 4, "embed": 4, "min-count": 1},
    "caption": {"lang": "en"},
    "evaluate": {"langs": "en"},
}
SHARED_RUN = {"epochs": 2, "hidden": 10, "embed": 8, "seed": 4}  # the shared run's train flags


def run(command, **flags):
    """``main`` on ``command`` with its tiny-run flags, each replaced by the ``flags`` entry of its name:
    ``min_count=2`` is ``--min-count 2`` and ``best_only=True`` is ``--best-only``."""
    given = {}
    for name, value in [*TINY.get(command, {}).items(), *flags.items()]:
        given[f"--{name.replace('_', '-')}"] = value
    argv = [command]
    for flag, value in given.items():
        argv += [flag] if value is True else [flag, str(value)]
    return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic dataset plus one tiny trained run, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    assert run("synth", out=data, n=40, seed=11) == EXIT_OK
    out = root / "run"
    assert run("train", data=data, out=out, **SHARED_RUN, best_only=True) == EXIT_OK
    return {"root": root, "data": data, "run": out}


@pytest.fixture(scope="module")
def speaker(workdir):
    """A hand-built checkpoint over the shared run's vocabulary whose captions
    differ from image to image, where the shared run's are all empty."""
    vocab = load_checkpoint(workdir["run"] / "best.ckpt").vocab
    width = load_dataset(workdir["data"])[0].feature.size
    params = wide_params(vocab=len(vocab), embed=8, hidden=8, feature=width, seed=2, scale=1.0)
    params.w_image *= 4.0  # so that the image, more than the prefix, picks each word
    path = workdir["root"] / "speaker.ckpt"
    save_checkpoint(path, Checkpoint(params, vocab, {}, 0))
    return path


def reader_args(command, valid, folder, **given):
    """``command``'s flags reading the valid files, or the ``given`` file of a kind, and writing into ``folder``."""
    files = {**valid, **given}
    return {
        "build-vocab": {"data": files["dataset"], "out": folder / "vocab.tsv"},
        "train": {"data": files["dataset"], "out": folder / "run", "split": "1,1,1"},
        "caption": {"ckpt": files["checkpoint"], "data": files["dataset"], "out": folder / "cap.tsv"},
        "evaluate": {"data": files["dataset"], "cands": files["candidates"], "out": folder / "report.json"},
    }[command]


def check_row(kind, row, command, valid, folder, capsys):
    """``command`` refuses the row's file with exit 3 and the row's message,
    and creates no file or directory; or it runs, if the row says it accepts the file."""
    case = TABLES[kind][row]
    path = forge(case, valid[kind], folder)
    before = sorted(folder.rglob("*"))
    code = run(command, **reader_args(command, valid, folder, **{kind: path}))
    err = capsys.readouterr().err
    if command in case.accepted_by:
        assert code == EXIT_OK, err
    else:
        assert code == EXIT_DATA and f"{path}{case.message}" in err, err
        assert sorted(folder.rglob("*")) == before


row_checks = partial(malformed.row_checks, check_row)


@pytest.mark.parametrize("command", READERS["dataset"])
def test_every_reader_runs_on_the_valid_files(valid, tmp_path, command):
    assert run(command, **reader_args(command, valid, tmp_path)) == EXIT_OK


def rewrite_captions(workdir, path, edit):
    """The shared dataset, written to ``path`` with every caption passed through ``edit``."""
    records = load_dataset(workdir["data"])
    save_dataset([ImageRecord(r.image_id, r.feature, tuple(map(edit, r.captions))) for r in records], path)
    return path


def spoken(path):
    """The distinct non-empty captions of a caption TSV."""
    return {line.split("\t")[1] for line in path.read_text().splitlines()} - {""}


def with_token_in_every_en_caption(workdir, path, token):
    """The shared dataset, written to ``path`` with ``token`` ending every en caption."""
    return rewrite_captions(workdir, path, lambda c: Caption("en", c.tokens + (token,)) if c.language == "en" else c)


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
        assert run("synth", out=out, n=7, seed=3) == EXIT_OK
        records = load_dataset(out)
        assert len(records) == 7
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["options"]["seed"] == 3
        assert str(out) in manifest["outputs"]

    def test_rerun_over_an_existing_file_writes_the_same_bytes(self, tmp_path):
        out = tmp_path / "d.jsonl"
        written = []
        for _ in range(2):
            assert run("synth", out=out, n=7, seed=3) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] and written[1] == written[0]

    def test_language_override(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run("synth", out=out, n=3, langs="de,en,fr") == EXIT_OK
        langs = {c.language for r in load_dataset(out) for c in r.captions}
        assert langs == {"de", "en", "fr"}


class TestBuildVocab:
    def test_writes_token_table(self, workdir, tmp_path):
        out = tmp_path / "vocab.tsv"
        assert run("build-vocab", data=workdir["data"], out=out) == EXIT_OK
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert [r[1] for r in rows[:5]] == ["<pad>", "<unk>", "<eos>", "<en>", "<jp>"]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))

    def test_min_count_prunes(self, workdir, tmp_path):
        out_all = tmp_path / "all.tsv"
        out_cut = tmp_path / "cut.tsv"
        run("build-vocab", data=workdir["data"], out=out_all)
        run("build-vocab", data=workdir["data"], out=out_cut, min_count=1000)
        assert len(out_cut.read_text().splitlines()) < len(out_all.read_text().splitlines())

    def test_failed_table_write_leaves_the_previous_table(self, workdir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "vocab.tsv"
        out.write_bytes(b"0\tolder\n")
        fail_writes_to(monkeypatch, "vocab.tsv")
        assert run("build-vocab", data=workdir["data"], out=out) == EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        assert_left_as_before(out, b"0\tolder\n")

    def test_failed_manifest_write_leaves_the_previous_manifest(self, workdir, tmp_path, monkeypatch):
        out = tmp_path / "vocab.tsv"
        manifest = tmp_path / "vocab.tsv.manifest.json"
        manifest.write_bytes(b"{}\n")
        fail_writes_to(monkeypatch, ".manifest.json")
        assert run("build-vocab", data=workdir["data"], out=out) == EXIT_DATA
        assert out.read_text().startswith("0\t<pad>\n")
        assert_left_as_before(manifest, b"{}\n")

    # ids these rows ran under before the tables; the table test at the end runs every other row
    test_lang_whose_start_token_is_a_control_token_is_data_error = row_checks("build-vocab", "dataset", "lang-pad")

    def test_lowercase_merges_case_variants(self, tmp_path):
        # "Cat" and "cat" each occur once: only their lowercased form reaches --min-count 2
        data = tmp_path / "cased.jsonl"
        write_jsonl(data, [
            {"image_id": "i0", "feature": [0.0], "captions": [{"lang": "en", "tokens": ["a", "Cat"]}]},
            {"image_id": "i1", "feature": [1.0], "captions": [{"lang": "en", "tokens": ["a", "cat"]}]},
        ])
        tables = {}
        for name, extra in (("cased", {}), ("lowered", {"lowercase": True})):
            out = tmp_path / f"{name}.tsv"
            assert run("build-vocab", data=data, out=out, min_count=2, **extra) == EXIT_OK
            tables[name] = [line.split("\t")[1] for line in out.read_text().splitlines()]
        assert not {"Cat", "cat"} & set(tables["cased"])
        assert "cat" in tables["lowered"]
        assert not any(ch.isupper() for token in tables["lowered"] for ch in token)
        assert json.loads((tmp_path / "lowered.tsv.manifest.json").read_text())["options"]["lowercase"] is True

    def test_unmatched_language_filter_fails(self, workdir, tmp_path, capsys):
        out = tmp_path / "v"
        assert run("build-vocab", data=workdir["data"], out=out, langs="xx") == EXIT_DATA
        assert capsys.readouterr().err == f"error: {workdir['data']}: no captions found for languages ('xx',)\n"
        assert not out.exists()


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
        assert run("train", data=workdir["data"], out=out, **SHARED_RUN) == EXIT_OK
        assert {p.name for p in out.glob("epoch_*.ckpt")} == {"epoch_000.ckpt", "epoch_001.ckpt"}

    def test_reruns_are_byte_identical(self, workdir, tmp_path):
        # every checkpoint, each epoch's as well as the best
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("train", data=workdir["data"], out=a, **SHARED_RUN) == EXIT_OK
        assert run("train", data=workdir["data"], out=b, **SHARED_RUN) == EXIT_OK
        names = sorted(p.name for p in a.glob("*.ckpt"))
        assert names == ["best.ckpt", "epoch_000.ckpt", "epoch_001.ckpt"]
        assert sorted(p.name for p in b.glob("*.ckpt")) == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_wider_validation_beam_trains_end_to_end(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert run("train", data=workdir["data"], out=out, val_beam=2) == EXIT_OK
        assert load_checkpoint(out / "best.ckpt").config["val_beam"] == 2

    def test_checkpoint_restores_a_working_model(self, workdir):
        ckpt = load_checkpoint(workdir["run"] / "best.ckpt")
        params = ckpt.params
        feature = np.zeros(params.dims.feature)
        trace = forward_sequence(feature, (EOS_ID,), ckpt.vocab.start_id("en"), params)
        assert len(trace.distributions) == 1

    def test_divergence_exits_with_its_own_code(self, workdir, tmp_path, monkeypatch, capsys):
        # a step size near the float64 limit overflows the second batch
        monkeypatch.setattr(trainer, "ADAM_ALPHA", 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("train", data=workdir["data"], out=tmp_path / "run", epochs=2)
        assert code == EXIT_DIVERGED
        assert "training diverged: non-finite loss or gradient in epoch 0, batch 1" in capsys.readouterr().err

    def test_failed_rerun_leaves_no_earlier_best_or_manifest(self, workdir, tmp_path, monkeypatch):
        # a directory with a manifest always holds a finished run: a run that
        # diverges into the directory of a good one removes that run's
        # best.ckpt and manifest.json before its first epoch
        out = tmp_path / "run"
        assert run("train", data=workdir["data"], out=out, epochs=3) == EXIT_OK
        assert (out / "best.ckpt").exists() and (out / "manifest.json").exists()
        monkeypatch.setattr(trainer, "ADAM_ALPHA", 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train", data=workdir["data"], out=out, epochs=2) == EXIT_DIVERGED
        assert not (out / "best.ckpt").exists()
        assert not (out / "manifest.json").exists()
        assert (out / "train_log.tsv").read_text() == ""

    @pytest.mark.parametrize(
        "second_flags, epoch_files",
        [({}, {"epoch_000.ckpt", "epoch_001.ckpt"}), ({"best_only": True}, set())],
        ids=["with-epochs", "best-only"],
    )
    def test_rerun_leaves_only_its_own_files(self, workdir, tmp_path, second_flags, epoch_files):
        out = tmp_path / "run"
        assert run("train", data=workdir["data"], out=out, epochs=3) == EXIT_OK
        assert (out / "epoch_002.ckpt").exists()
        # only the names save_epoch writes are the run's: these are someone else's
        bystanders = ["epoch_1.ckpt", "epoch_002.ckpt.bak", "epoch_abc.ckpt", "notes.txt"]
        for name in bystanders:
            (out / name).write_bytes(b"kept")
        assert run("train", data=workdir["data"], out=out, epochs=2, **second_flags) == EXIT_OK
        own = {"best.ckpt", "train_log.tsv", "manifest.json"} | epoch_files
        assert {p.name for p in out.iterdir()} == own | set(bystanders)
        manifest = json.loads((out / "manifest.json").read_text())
        assert {Path(p).name for p in manifest["outputs"]} == own - {"manifest.json"}

    def test_oversubscribed_split_fails(self, workdir, tmp_path):
        assert run("train", data=workdir["data"], out=tmp_path / "r", split="1000,5,5") == EXIT_DATA

    def test_no_validation_split_is_data_error_before_training(self, workdir, tmp_path, capsys):
        out = tmp_path / "r"
        assert run("train", data=workdir["data"], out=out, split="30,0,5") == EXIT_DATA
        assert "no validation captions" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    # a token spelled like a control token, in every en caption, or None for the shared data as it is
    REFUSED = [(None, {"split": "30,0,5"}), (None, {"langs": "xx"}), ("<en>", {}), ("<EN>", {"lowercase": True})]

    @pytest.mark.parametrize("token, extra", REFUSED, ids=["extra0", "extra1", "control-token", "lowercased-control-token"])
    def test_refused_run_leaves_no_out_directory(self, workdir, tmp_path, capsys, token, extra):
        data = workdir["data"] if token is None else with_token_in_every_en_caption(workdir, tmp_path / "d.jsonl", token)
        out = tmp_path / "r"
        assert run("train", data=data, out=out, **extra) == EXIT_DATA
        assert not out.exists()
        if token is not None:
            assert "surface tokens collide with control tokens: ['<en>']" in capsys.readouterr().err

    @pytest.mark.parametrize("token, extra", REFUSED[2:], ids=["control-token", "lowercased-control-token"])
    def test_refused_run_leaves_the_earlier_run_as_it_was(self, workdir, tmp_path, token, extra):
        out = tmp_path / "run"
        assert run("train", data=workdir["data"], out=out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"best.ckpt", "epoch_000.ckpt", "manifest.json"} <= set(before) and before["train_log.tsv"]
        data = with_token_in_every_en_caption(workdir, tmp_path / "d.jsonl", token)
        assert run("train", data=data, out=out, **extra) == EXIT_DATA
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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

    # ids these rows ran under before the tables; the table test at the end runs every other row
    test_caption_language_that_langs_cannot_name_is_data_error = row_checks("train", "dataset", "lang-comma")
    test_lang_whose_start_token_is_a_control_token_is_data_error = row_checks(
        "train", "dataset", "lang-pad", "lang-unk", "lang-eos", ids=["pad", "unk", "eos"]
    )
    test_lone_surrogate_in_a_token_names_file_and_line = row_checks("train", "dataset", "surrogate-token")


class TestCaption:
    def test_one_line_per_record(self, workdir, speaker, tmp_path):
        out = tmp_path / "cap.tsv"
        assert run("caption", ckpt=speaker, data=workdir["data"], out=out, beam=2, max_len=6) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 40
        ids = [line.split("\t", 1)[0] for line in lines]
        assert ids == [r.image_id for r in load_dataset(workdir["data"])]
        assert len(spoken(out)) >= 2

    @pytest.mark.parametrize("beam", ["1", "2"])
    def test_repeats_and_lone_images_get_the_same_lines(self, workdir, speaker, tmp_path, beam):
        # the full file twice, then each of its first three images alone: the
        # block an image decodes in does not change its line
        runs = [("a", workdir["data"]), ("b", workdir["data"])]
        for index, record in enumerate(load_dataset(workdir["data"])[:3]):
            save_dataset([record], tmp_path / f"{index}.jsonl")
            runs.append((str(index), tmp_path / f"{index}.jsonl"))
        written = []
        for name, data in runs:
            assert run("caption", ckpt=speaker, data=data, out=tmp_path / f"{name}.tsv", beam=beam, max_len=8) == EXIT_OK
            written.append((tmp_path / f"{name}.tsv").read_text())
        full, again, *alone = written
        captions = [line.split("\t")[1] for line in full.splitlines()]
        assert len(set(captions) - {""}) >= 2, captions  # the model says something, and not one thing
        assert again == full
        assert alone == full.splitlines(keepends=True)[:3]

    def test_checkpoint_feature_l2norm_is_reapplied(self, workdir, speaker, tmp_path):
        # a normalized run records the flag, and caption normalizes the features it is given
        out = tmp_path / "run"
        assert run("train", data=workdir["data"], out=out, feature_l2norm=True) == EXIT_OK
        assert load_checkpoint(out / "best.ckpt").config["feature_l2norm"] is True
        scaled, normalized, huge = tmp_path / "scaled.jsonl", tmp_path / "normalized.jsonl", tmp_path / "huge.jsonl"
        records = [ImageRecord(r.image_id, 4.0 * r.feature, r.captions) for r in load_dataset(workdir["data"])]
        save_dataset(records, scaled)
        save_dataset(l2_normalize_records(records), normalized)
        # squared norms that overflow: normalized all the same, not zeroed
        save_dataset([ImageRecord(r.image_id, 1e200 * r.feature, r.captions) for r in load_dataset(workdir["data"])], huge)
        flagged = tmp_path / "flagged.ckpt"
        rewrite_checkpoint_header(speaker, flagged, lambda header: header.update(config={"feature_l2norm": True}))
        written = {}
        for ckpt, data in ((flagged, scaled), (flagged, huge), (speaker, normalized), (speaker, scaled)):
            target = tmp_path / f"{ckpt.stem}-{data.stem}.tsv"
            assert run("caption", ckpt=ckpt, data=data, out=target, beam=1, max_len=8) == EXIT_OK
            written[ckpt.stem, data.stem] = target.read_bytes()
        assert written["flagged", "scaled"] == written["flagged", "huge"] == written["speaker", "normalized"] != written["speaker", "scaled"]

    def test_features_is_an_alias_for_data(self, workdir, speaker, tmp_path):
        written = []
        for flag in ("--data", "--features"):
            out = tmp_path / f"cap{flag}.tsv"
            assert run("caption", ckpt=speaker, **{flag[2:]: workdir["data"]}, out=out, beam=2, max_len=6) == EXIT_OK
            written.append(out.read_bytes())
        assert len(spoken(out)) >= 2 and written[1] == written[0]

    def test_length_norm_reaches_the_decoder(self, workdir, tmp_path):
        # p(eos) = .45 and p(a) = .55 at every step: at --max-len 2 the raw sums rank
        # [eos], the empty caption, first, and the per-token means rank [a, a] first
        records = load_dataset(workdir["data"])
        features = [r.feature for r in records]
        vocab = build_vocab([("en", ("a",))], min_count=1)
        params = prefix_free_params([NEG_BIG, NEG_BIG, np.log(0.45), NEG_BIG, np.log(0.55)], feature=features[0].size)
        save_checkpoint(tmp_path / "flat.ckpt", Checkpoint(params, vocab, {}, 0))
        out = tmp_path / "cap.tsv"
        assert run("caption", ckpt=tmp_path / "flat.ckpt", data=workdir["data"], out=out, beam=2, max_len=2, length_norm=True) == EXIT_OK
        normed = trainer.decode_images(params, vocab, features, "en", 2, 2, length_norm=True)
        assert normed == [["a", "a"]] * 40 and trainer.decode_images(params, vocab, features, "en", 2, 2) == [[]] * 40
        assert out.read_text() == "".join(f"{r.image_id}\t{' '.join(tokens)}\n" for r, tokens in zip(records, normed))
        assert json.loads((tmp_path / "cap.tsv.manifest.json").read_text())["options"]["length_norm"] is True

    def test_unknown_language_is_usage_error(self, workdir, tmp_path):
        assert run("caption", ckpt=workdir["run"] / "best.ckpt", data=workdir["data"], out=tmp_path / "c", lang="xx") == EXIT_USAGE

    def test_feature_width_mismatch_is_data_error(self, workdir, tmp_path, capsys):
        records = load_dataset(workdir["data"])
        bad = tmp_path / "bad.jsonl"
        save_dataset([ImageRecord(r.image_id, r.feature[:4], r.captions) for r in records[:2]], bad)
        assert run("caption", ckpt=workdir["run"] / "best.ckpt", data=bad, out=tmp_path / "c") == EXIT_DATA
        err = f"error: {bad}: feature width 4 does not match model width 16 of {workdir['run'] / 'best.ckpt'}\n"
        assert capsys.readouterr().err == err
        assert not (tmp_path / "c").exists()

    # ids these rows ran under before the tables; the table test at the end runs every other row
    test_image_id_holding_a_tab_is_data_error = row_checks("caption", "dataset", "id-tab")
    test_non_number_feature_is_data_error = row_checks("caption", "dataset", "feature-string")
    test_non_finite_checkpoint_is_data_error = row_checks("caption", "checkpoint", "non-finite-array")
    test_manifest_entry_without_name_is_data_error = row_checks("caption", "checkpoint", "manifest-entry-without-name")
    test_vocabulary_shorter_than_dims_is_data_error = row_checks("caption", "checkpoint", "vocab-short")
    test_non_int_dims_is_data_error = row_checks("caption", "checkpoint", "dims-float")
    test_non_string_vocabulary_token_is_data_error = row_checks("caption", "checkpoint", "token-not-a-string")
    test_vocabulary_token_holding_a_line_break_is_data_error = row_checks("caption", "checkpoint", "token-line-break")
    test_non_object_config_is_data_error = row_checks("caption", "checkpoint", "config-not-an-object")
    test_non_bool_feature_l2norm_is_data_error = row_checks(
        "caption", "checkpoint", "l2norm-string", "l2norm-int", "l2norm-null", ids=["no", "1", "None"]
    )
    test_array_shape_disagreeing_with_dims_is_data_error = row_checks("caption", "checkpoint", "array-shape")
    test_forged_lengths_are_data_errors = row_checks(
        "caption", "checkpoint", "cut-half", f"header-length-{2**63 - 1}", "huge-hidden", ids=["truncated", "header_length", "huge_dims"]
    )

    def test_missing_feature_l2norm_means_false(self, workdir, speaker, tmp_path):
        # normalizing the 4x-scaled features changes the speaker's lines
        scaled, ckpt = tmp_path / "scaled.jsonl", tmp_path / "speaker.ckpt"
        save_dataset([ImageRecord(r.image_id, 4.0 * r.feature, r.captions) for r in load_dataset(workdir["data"])], scaled)
        written = []
        for config in ({}, {"feature_l2norm": False}, {"feature_l2norm": True}):
            rewrite_checkpoint_header(speaker, ckpt, lambda header: header.update(config=config))
            assert run("caption", ckpt=ckpt, data=scaled, out=tmp_path / "c") == EXIT_OK
            written.append((tmp_path / "c").read_bytes())
        assert written[0] == written[1] != written[2]

    def test_decode_failure_leaves_no_output_behind(self, workdir, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("non-finite log-probabilities at decode step 2")

        monkeypatch.setattr(cli, "decode_images", fail)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert run("caption", ckpt=workdir["run"] / "best.ckpt", data=workdir["data"], out=fresh / "c") == EXIT_DATA
        assert "non-finite log-probabilities" in capsys.readouterr().err
        assert list(fresh.iterdir()) == []

        existing = tmp_path / "c"
        existing.write_bytes(b"img-0\tan older caption\n")
        assert run("caption", ckpt=workdir["run"] / "best.ckpt", data=workdir["data"], out=existing) == EXIT_DATA
        assert existing.read_bytes() == b"img-0\tan older caption\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "fresh"]

    def test_missing_checkpoint_is_data_error(self, workdir, tmp_path):
        assert run("caption", ckpt=tmp_path / "nope.ckpt", data=workdir["data"], out=tmp_path / "c") == EXIT_DATA


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
        assert run("evaluate", data=workdir["data"], cands=f"{en},{jp}", langs="en,jp", out=report_path) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert json.loads(capsys.readouterr().out) == report
        for lang in ("en", "jp"):
            scores = report["per_language"][lang]
            assert scores["bleu1"] == 1.0
            assert scores["images"] == 40
            assert 0.5 < scores["cider"] <= 1.0
        assert report["overall"]["images"] == 80

    def test_repeated_report_has_the_same_bytes(self, workdir, tmp_path):
        en = self._reference_candidates(workdir, tmp_path, "en")
        written = []
        for name in ("a.json", "b.json"):
            assert run("evaluate", data=workdir["data"], cands=en, out=tmp_path / name) == EXIT_OK
            written.append((tmp_path / name).read_bytes())
        assert json.loads(written[0])["overall"]["images"] == 40 and written[1] == written[0]

    def test_failed_report_write_leaves_the_previous_report(self, workdir, tmp_path, monkeypatch):
        en = self._reference_candidates(workdir, tmp_path, "en")
        report_path = tmp_path / "report.json"
        report_path.write_bytes(b'{"older": true}\n')
        fail_writes_to(monkeypatch, "report.json")
        assert run("evaluate", data=workdir["data"], cands=en, out=report_path) == EXIT_DATA
        assert_left_as_before(report_path, b'{"older": true}\n')
        assert not (tmp_path / "report.json.manifest.json").exists()

    def test_cands_langs_mismatch(self, workdir, tmp_path):
        en = self._reference_candidates(workdir, tmp_path, "en")
        assert run("evaluate", data=workdir["data"], cands=en, langs="en,jp") == EXIT_USAGE

    def test_crlf_candidates_score_as_lf_candidates(self, workdir, tmp_path, capsys):
        en = self._reference_candidates(workdir, tmp_path, "en")
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(en.read_bytes().replace(b"\n", b"\r\n"))
        reports = []
        for cands in (en, crlf):
            assert run("evaluate", data=workdir["data"], cands=cands) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]

    def test_language_without_references_is_data_error(self, valid, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run("evaluate", data=valid["dataset"], cands=valid["candidates"], langs="de", out=report) == EXIT_DATA
        assert f"{valid['candidates']}:1: image 'synth-000000' has no 'de' references" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # ids these rows ran under before the tables; the table test at the end runs every other row
    test_candidates_that_are_not_utf8_name_file_and_line = row_checks(
        "evaluate", "candidates", "utf16-bom", "latin1-crlf", ids=["1", "2"]
    )
    test_unknown_image_id_fails = row_checks("evaluate", "candidates", "unknown-image")
    # "New York" as one token cannot match a caption read back split on
    # whitespace, so the exact caption would score BLEU-2..4 of zero
    test_reference_token_holding_whitespace_is_data_error = row_checks("evaluate", "dataset", "token-space")

    def test_lowercase_applies_to_candidates_too(self, tmp_path, capsys):
        # exact candidates score the same with and without the flag
        data = tmp_path / "refs.jsonl"
        write_jsonl(data, [
            {"image_id": "i0", "feature": [0.0], "captions": [{"lang": "en", "tokens": ["A", "Red", "Circle"]}]},
            {"image_id": "i1", "feature": [1.0], "captions": [{"lang": "en", "tokens": ["Blue", "Star"]}]},
        ])
        cands = tmp_path / "cands.tsv"
        cands.write_text("i0\tA Red Circle\ni1\tBlue Star\n")
        reports = []
        for extra in ({}, {"lowercase": True}):
            assert run("evaluate", data=data, cands=cands, **extra) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1] == reports[0]
        assert reports[1]["per_language"]["en"]["bleu1"] == 1.0
        assert reports[1]["per_language"]["en"]["cider"] > 0.5

    def test_identity_corpus_scores_one_everywhere(self, tmp_path, capsys):
        # two images with disjoint four-token captions: every n-gram order
        # has a nonzero tf-idf vector, so exact candidates are perfect
        data = tmp_path / "refs.jsonl"
        write_jsonl(data, [
            {"image_id": "i0", "feature": [0.0], "captions": [{"lang": "en", "tokens": ["a", "b", "c", "d"]}]},
            {"image_id": "i1", "feature": [1.0], "captions": [{"lang": "en", "tokens": ["e", "f", "g", "h"]}]},
        ])
        cands = tmp_path / "cands.tsv"
        cands.write_text("i0\ta b c d\ni1\te f g h\n")
        assert run("evaluate", data=data, cands=cands) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        scores = report["per_language"]["en"]
        for key in ("bleu1", "bleu2", "bleu3", "bleu4"):
            assert scores[key] == 1.0
        assert abs(scores["cider"] - 1.0) < 1e-12


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert run("gradcheck") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("  ok") == 2
        assert "lstm_sequence" in out and "sequence_loss" in out

    def test_fails_at_impossible_tolerance(self, capsys):
        assert run("gradcheck", tolerance=1e-15) == EXIT_GRADCHECK

    def test_seed_only_varies_op_inputs(self, capsys):
        assert run("gradcheck", seed=99) == EXIT_OK


class TestChain:
    def test_leaves_no_partial_file(self, tmp_path):
        # every atomic write renames or removes its <path>.partial
        data, out, cands = tmp_path / "d.jsonl", tmp_path / "run", tmp_path / "cap.tsv"
        commands = [
            ("synth", {"out": data, "n": 12, "seed": 2}),
            ("build-vocab", {"data": data, "out": tmp_path / "vocab.tsv"}),
            ("train", {"data": data, "out": out, "split": "8,2,2", "epochs": 2}),
            ("caption", {"ckpt": out / "best.ckpt", "data": data, "out": cands}),
            ("evaluate", {"data": data, "cands": cands, "out": tmp_path / "r.json"}),
        ]
        for command, flags in commands:
            assert run(command, **flags) == EXIT_OK, command
        names = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
        assert {"vocab.tsv", "run/epoch_001.ckpt", "cap.tsv", "r.json.manifest.json"} <= names
        assert not [name for name in names if name.endswith(".partial")]


class TestParsing:
    @pytest.mark.parametrize("command", ["build-vocab", "caption", "evaluate"])
    def test_seed_only_on_commands_that_draw_randomness(self, command, capsys):
        # these commands draw no randomness, so they take no --seed
        assert run(command, **self.COMMANDS[command], seed=1) == EXIT_USAGE
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run("no-such-command") == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert run("synth") == EXIT_USAGE

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK

    # every command's files are missing, so a handler that ran would exit 3, not 2
    COMMANDS = {
        "synth": {"out": "out.jsonl"},
        "build-vocab": {"data": "missing.jsonl", "out": "vocab.tsv"},
        "train": {"data": "missing.jsonl", "out": "run"},
        "caption": {"ckpt": "missing.ckpt", "data": "missing.jsonl", "out": "cap.tsv"},
        "evaluate": {"data": "missing.jsonl", "cands": "en.tsv", "out": "report.json"},
        "gradcheck": {},
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
        assert run(command, **{**self.COMMANDS[command], flag[2:]: value}) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"mlcap {command}: error: argument {flag}: " in err and rule in err
        assert list(tmp_path.iterdir()) == []


# the table test: every row, through every command that reads its kind, that no test named above runs
@pytest.mark.parametrize("kind, row, command", unnamed(READERS))
def test_every_reader_refuses_each_malformed_file(valid, tmp_path, capsys, kind, row, command):
    check_row(kind, row, command, valid, tmp_path, capsys)
