"""Command-line interface.

Subcommands: build-vocab, train, caption, evaluate, synth, gradcheck.
Exit codes: 0 success, 2 usage error, 3 data validation error, 4 gradient
check failure, 5 training diverged. The parser converts and checks every
flag value, so a bad one exits 2 before any file is read or written; train
and caption take their defaults from ``TrainConfig`` and ``BeamConfig``.
Every command that writes an artifact also writes a manifest recording the
resolved flags, so a run can be reproduced exactly. Every output but the
training log is written through ``atomic_open``: a command that fails
leaves the previous file whole.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, gradcheck
from .beam import BeamConfig
from .data import (
    Checkpoint,
    CheckpointError,
    DatasetError,
    atomic_open,
    check_split,
    corpus_from_records,
    l2_normalize_records,
    load_checkpoint,
    load_dataset,
    lowercase_records,
    save_checkpoint,
    save_dataset,
    split_dataset,
    synth_generate,
    text_lines,
)
from .metrics import CorpusEval, evaluate_corpus
from .rng import substream
from .trainer import CLIP_NORM, DivergenceError, TrainConfig, decode_images, run_training, training_languages
from .vocab import build_vocab, check_language


class UsageError(ValueError):
    """Flag facts the parser cannot see: counts that must agree, a language the checkpoint lacks."""


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_GRADCHECK = 4
EXIT_DIVERGED = 5


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then refuse a value unless ``ok(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {convert.__name__}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "must be >= 1")
_seed = _checked(int, lambda v: v >= 0, "must be >= 0")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and positive")


def _langs(text: str) -> tuple[str, ...]:
    """Comma-separated codes, each one a dataset's ``lang`` could hold (``vocab.check_language``)."""
    langs = [x.strip() for x in text.split(",")]
    try:
        for code in langs:
            check_language(code)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"got {text!r}: {exc}") from None
    if len(set(langs)) != len(langs):
        raise argparse.ArgumentTypeError(f"repeats a language code: {text!r}")
    return tuple(langs)


def _split(text: str) -> tuple:
    """Three integer counts, or else three fractions (train,val,test)."""
    parts = text.split(",")
    try:
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            numbers = [float(p) for p in parts]
        return check_split(numbers)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_seed(p):
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed, help="run seed (all rng streams derive from it)")


def _add_langs(p, dest="langs"):
    p.add_argument("--langs", dest=dest, metavar="LANGS", type=_langs, help="comma-separated language codes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlcap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mlcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build and write the token table")
    p.add_argument("--data", required=True, help="JSONL dataset")
    p.add_argument("--out", required=True, help="output listing path")
    p.add_argument("--min-count", type=_positive_int, default=TrainConfig.min_count, help="minimum token frequency")
    p.add_argument("--lowercase", action="store_true", help="lowercase caption tokens")
    _add_langs(p)

    # dests are TrainConfig's field names, so cmd_train builds the config from them
    p = sub.add_parser("train", help="train a caption model")
    p.add_argument("--data", required=True, help="JSONL dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", type=_split, default="0.8,0.1,0.1", help="train,val,test counts or fractions")
    p.add_argument("--epochs", type=_positive_int, default=TrainConfig.epochs)
    p.add_argument("--batch", dest="batch_size", metavar="BATCH", type=_positive_int, default=TrainConfig.batch_size)
    p.add_argument("--hidden", type=_positive_int, default=TrainConfig.hidden)
    p.add_argument("--embed", type=_positive_int, default=TrainConfig.embed)
    p.add_argument("--min-count", type=_positive_int, default=TrainConfig.min_count)
    p.add_argument("--val-beam", type=_positive_int, default=TrainConfig.val_beam, help="validation beam width")
    p.add_argument("--max-len", type=_positive_int, default=TrainConfig.max_len)
    p.add_argument("--loss-sum", dest="loss_mode", action="store_const", const="sum",
                   default=TrainConfig.loss_mode, help="optimize the raw summed loss")
    p.add_argument("--clip", action="store_true", help=f"clip gradients to global norm {CLIP_NORM}")
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--feature-l2norm", action="store_true", help="unit-normalize features")
    p.add_argument("--best-only", action="store_true", help="skip per-epoch checkpoints")
    _add_langs(p, dest="languages")
    _add_seed(p)

    p = sub.add_parser("caption", help="decode captions for a feature file")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument(
        "--data", "--features", dest="data", required=True,
        help="JSONL with image_id and feature (captions optional)",
    )
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--lang", required=True, help="language to decode")
    p.add_argument("--beam", type=_positive_int, default=BeamConfig.width)
    p.add_argument("--max-len", type=_positive_int, default=BeamConfig.max_len)
    p.add_argument("--length-norm", action="store_true", help="rank by logprob per token")

    p = sub.add_parser("evaluate", help="score candidate captions against references")
    p.add_argument("--data", required=True, help="JSONL reference dataset")
    p.add_argument("--cands", required=True, help="comma-separated candidate TSV paths")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.add_argument("--lowercase", action="store_true", help="lowercase reference and candidate tokens")
    _add_langs(p)

    p = sub.add_parser("synth", help="generate the synthetic shapes dataset")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--n", type=_positive_int, default=1200, help="number of images")
    _add_langs(p)
    _add_seed(p)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--tolerance", type=_tolerance, default=1e-5)
    _add_seed(p)

    return parser


def _write_manifest(args: argparse.Namespace, outputs: list[str], path=None) -> None:
    """Record the resolved flags in ``path``, by default beside the first output."""
    options = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    manifest = {
        "artifact_version": __version__,
        "command": args.command,
        "options": options,
        "outputs": outputs,
    }
    with atomic_open(path or outputs[0] + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_build_vocab(args) -> int:
    records = load_dataset(args.data)
    corpus = corpus_from_records(lowercase_records(records) if args.lowercase else records, args.langs)
    if not corpus:
        raise DatasetError(f"no captions found for languages {args.langs}")
    vocab = build_vocab(corpus, args.min_count)
    out = Path(args.out)
    with atomic_open(out, "w", encoding="utf-8") as fh:
        for i, token in enumerate(vocab.id_to_token):
            fh.write(f"{i}\t{token}\n")
    _write_manifest(args, [str(out)])
    print(f"wrote {len(vocab)} tokens to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig) if hasattr(args, f.name)})
    # run_training applies config.lowercase and config.feature_l2norm itself
    split = split_dataset(load_dataset(args.data), args.split, substream(config.seed, "split"))
    training_languages(split, config)  # refuse the inputs before anything is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    best_path, manifest_path = out_dir / "best.ckpt", out_dir / "manifest.json"
    # a directory with a manifest holds a finished run: an earlier run's results,
    # its epoch checkpoints too, go first (the manifest before anything else)
    earlier = [path for path in out_dir.glob("epoch_*.ckpt") if re.fullmatch(r"epoch_[0-9]{3,}\.ckpt", path.name)]
    for path in [manifest_path, best_path, *earlier]:
        path.unlink(missing_ok=True)
    log_path = out_dir / "train_log.tsv"
    epoch_paths: list[str] = []

    def save_epoch(params, vocab, epoch):
        path = out_dir / f"epoch_{epoch:03d}.ckpt"
        save_checkpoint(path, Checkpoint(params, vocab, config.as_dict(), epoch))
        epoch_paths.append(str(path))

    with log_path.open("w", encoding="utf-8") as log_fh:

        def log(line: str) -> None:
            print(line)
            log_fh.write(line + "\n")

        result = run_training(split, config, log=log, save_epoch=None if args.best_only else save_epoch)
    save_checkpoint(best_path, Checkpoint(result.params, result.vocab, config.as_dict(), result.best_epoch))
    _write_manifest(args, [str(best_path), str(log_path)] + epoch_paths, manifest_path)
    print(f"best epoch {result.best_epoch} -> {best_path}")
    return EXIT_OK


def cmd_caption(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    l2norm = ckpt.config.get("feature_l2norm", False)  # checkpoints made outside `mlcap train` may lack it
    if not isinstance(l2norm, bool):
        raise CheckpointError(f"{args.ckpt}: config.feature_l2norm must be true or false, got {l2norm!r}")
    params, vocab = ckpt.params, ckpt.vocab
    try:
        vocab.start_id(args.lang)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    records = load_dataset(args.data, require_captions=False)
    # load_dataset guarantees one feature width per file
    width = records[0].feature.size
    if width != params.dims.feature:
        raise DatasetError(f"feature width {width} does not match model width {params.dims.feature}")
    if l2norm:
        records = l2_normalize_records(records)
    features = [rec.feature for rec in records]
    captions = decode_images(params, vocab, features, args.lang, args.beam, args.max_len, args.length_norm)
    out = Path(args.out)
    with atomic_open(out, "w", encoding="utf-8") as fh:
        for rec, tokens in zip(records, captions):
            fh.write(f"{rec.image_id}\t{' '.join(tokens)}\n")
    _write_manifest(args, [str(out)])
    print(f"wrote {len(records)} captions to {out}")
    return EXIT_OK


def _read_candidates(path, lowercase: bool) -> dict[str, list[str]]:
    candidates: dict[str, list[str]] = {}
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise DatasetError(f"{path}:{lineno}: expected 'image_id<TAB>tokens'")
        image_id, text = line.split("\t", 1)
        if image_id in candidates:
            raise DatasetError(f"{path}:{lineno}: duplicate candidate for {image_id!r}")
        candidates[image_id] = (text.lower() if lowercase else text).split()
    if not candidates:
        raise DatasetError(f"{path}: no candidates found")
    return candidates


def cmd_evaluate(args) -> int:
    cand_paths = [p.strip() for p in args.cands.split(",") if p.strip()]
    if args.langs is None or len(args.langs) != len(cand_paths):
        raise UsageError("--cands and --langs must list the same number of entries")
    records = load_dataset(args.data)
    by_id = {rec.image_id: rec for rec in (lowercase_records(records) if args.lowercase else records)}
    report: dict = {"per_language": {}}
    pooled = []
    for lang, path in zip(args.langs, cand_paths):
        pairs = []
        for image_id, tokens in _read_candidates(path, args.lowercase).items():
            rec = by_id.get(image_id)
            if rec is None:
                raise DatasetError(f"{path}: candidate {image_id!r} is not in the reference data")
            refs = [c.tokens for c in rec.captions if c.language == lang]
            if not refs:
                raise DatasetError(f"{path}: image {image_id!r} has no {lang!r} references")
            pairs.append((tokens, refs))
        pooled.extend(pairs)
        report["per_language"][lang] = evaluate_corpus(CorpusEval.from_pairs(pairs)).as_dict()
    report["overall"] = evaluate_corpus(CorpusEval.from_pairs(pooled)).as_dict()
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_manifest(args, [args.out])
    return EXIT_OK


def cmd_synth(args) -> int:
    records = synth_generate(args.n, substream(args.seed, "synth"), args.langs or ("en", "jp"))
    out = Path(args.out)
    save_dataset(records, out)
    _write_manifest(args, [str(out)])
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    failures = 0
    for name, func, inputs in gradcheck.battery(args.seed):
        err = gradcheck.gradient_check(func, inputs)
        status = "ok" if err < args.tolerance else "FAIL"
        failures += status == "FAIL"
        print(f"{name:<22s} max_rel_err={err:.3e}  {status}")
    if failures:
        print(f"{failures} gradient check(s) exceeded tolerance {args.tolerance:g}", file=sys.stderr)
        return EXIT_GRADCHECK
    print(f"all gradient checks within tolerance {args.tolerance:g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "build-vocab": cmd_build_vocab,
        "train": cmd_train,
        "caption": cmd_caption,
        "evaluate": cmd_evaluate,
        "synth": cmd_synth,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DatasetError, CheckpointError, OSError, ValueError) as exc:
        # remaining ValueErrors are data-driven contract violations
        # (vocabulary collisions, oversubscribed splits, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
