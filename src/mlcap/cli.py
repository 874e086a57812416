"""Command-line interface.

Subcommands: build-vocab, train, caption, evaluate, synth, gradcheck.
Exit codes: 0 success, 2 usage error, 3 data validation error, 4 gradient
check failure, 5 training diverged. Every command that writes an artifact
also writes a manifest recording the resolved flags, so a run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, gradcheck
from .data import (
    CheckpointError,
    DatasetError,
    checkpoint_from_model,
    corpus_from_records,
    l2_normalize_records,
    load_checkpoint,
    load_dataset,
    model_from_checkpoint,
    save_checkpoint,
    save_dataset,
    split_dataset,
    synth_generate,
)
from .metrics import CorpusEval, evaluate_corpus
from .rng import substream
from .trainer import DivergenceError, TrainConfig, generate_caption, run_training, training_languages
from .vocab import build_vocab


class UsageError(ValueError):
    """Bad flag values or flag combinations."""


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_GRADCHECK = 4
EXIT_DIVERGED = 5


def _add_seed(p):
    p.add_argument("--seed", type=int, default=42, help="run seed (all rng streams derive from it)")


def _add_langs(p):
    p.add_argument("--langs", type=str, default=None, help="comma-separated language codes")


def _parse_langs(value):
    if value is None:
        return None
    langs = [x.strip() for x in value.split(",") if x.strip()]
    if not langs:
        raise UsageError("--langs must name at least one language code")
    if len(set(langs)) != len(langs):
        raise UsageError(f"--langs repeats a language code: {value!r}")
    return langs


def _parse_split(value):
    parts = [x.strip() for x in value.split(",")]
    if len(parts) != 3:
        raise UsageError("--split needs three comma-separated values (train,val,test)")
    try:
        if all("." not in p and "e" not in p.lower() for p in parts):
            return tuple(int(p) for p in parts)
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"--split values must all be numbers: {value!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlcap", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mlcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build and write the token table")
    p.add_argument("--data", required=True, help="JSONL dataset")
    p.add_argument("--out", required=True, help="output listing path")
    p.add_argument("--min-count", type=int, default=5, help="minimum token frequency")
    p.add_argument("--lowercase", action="store_true", help="lowercase caption tokens")
    _add_langs(p)

    p = sub.add_parser("train", help="train a caption model")
    p.add_argument("--data", required=True, help="JSONL dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", default="0.8,0.1,0.1", help="train,val,test counts or fractions")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--hidden", type=int, default=512)
    p.add_argument("--embed", type=int, default=512)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--beam", type=int, default=5, help="beam width recorded for generation")
    p.add_argument("--val-beam", type=int, default=1, help="beam width for per-epoch validation")
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--loss-sum", action="store_true", help="optimize the raw summed loss")
    p.add_argument("--clip", action="store_true", help="clip gradients to global norm 5.0")
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--feature-l2norm", action="store_true", help="unit-normalize features")
    p.add_argument("--best-only", action="store_true", help="skip per-epoch checkpoints")
    _add_langs(p)
    _add_seed(p)

    p = sub.add_parser("caption", help="decode captions for a feature file")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument(
        "--data", "--features", dest="data", required=True,
        help="JSONL with image_id and feature (captions optional)",
    )
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--lang", required=True, help="language to decode")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--length-norm", action="store_true", help="rank by logprob per token")

    p = sub.add_parser("evaluate", help="score candidate captions against references")
    p.add_argument("--data", required=True, help="JSONL reference dataset")
    p.add_argument("--cands", required=True, help="comma-separated candidate TSV paths")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.add_argument("--lowercase", action="store_true")
    _add_langs(p)

    p = sub.add_parser("synth", help="generate the synthetic shapes dataset")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--n", type=int, default=1200, help="number of images")
    _add_langs(p)
    _add_seed(p)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--tolerance", type=float, default=1e-5)
    _add_seed(p)

    return parser


def _manifest_path(out) -> Path:
    return Path(str(out) + ".manifest.json")


def _write_manifest(out_path: Path, command: str, args: argparse.Namespace, outputs: list[str]) -> None:
    options = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "options": options,
        "outputs": outputs,
    }
    out_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_build_vocab(args) -> int:
    langs = _parse_langs(args.langs)
    if args.min_count < 1:
        raise UsageError("--min-count must be >= 1")
    records = load_dataset(args.data, lowercase=args.lowercase)
    corpus = corpus_from_records(records, langs)
    if not corpus:
        raise DatasetError(f"no captions found for languages {langs}")
    vocab = build_vocab(corpus, args.min_count)
    out = Path(args.out)
    with out.open("w", encoding="utf-8") as fh:
        for i, token in enumerate(vocab.id_to_token):
            fh.write(f"{i}\t{token}\n")
    _write_manifest(_manifest_path(out), "build-vocab", args, [str(out)])
    print(f"wrote {len(vocab)} tokens to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        config = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch,
            hidden=args.hidden,
            embed=args.embed,
            beam=args.beam,
            val_beam=args.val_beam,
            max_len=args.max_len,
            seed=args.seed,
            min_count=args.min_count,
            languages=None if args.langs is None else tuple(_parse_langs(args.langs)),
            loss_mode="sum" if args.loss_sum else "mean",
            clip=args.clip,
            lowercase=args.lowercase,
            feature_l2norm=args.feature_l2norm,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    records = load_dataset(args.data, lowercase=config.lowercase)
    if config.feature_l2norm:
        records = l2_normalize_records(records)
    split = split_dataset(records, _parse_split(args.split), substream(config.seed, "split"))
    training_languages(split, config)  # refuse the inputs before anything is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.tsv"
    epoch_paths: list[str] = []

    def save_epoch(params, vocab, epoch):
        if args.best_only:
            return
        path = out_dir / f"epoch_{epoch:03d}.ckpt"
        save_checkpoint(path, checkpoint_from_model(params, vocab, config.as_dict(), epoch))
        epoch_paths.append(str(path))

    with log_path.open("w", encoding="utf-8") as log_fh:

        def log(line: str) -> None:
            print(line)
            log_fh.write(line + "\n")

        result = run_training(split, config, log=log, save_epoch=save_epoch)
    best_path = out_dir / "best.ckpt"
    save_checkpoint(
        best_path,
        checkpoint_from_model(result.params, result.vocab, config.as_dict(), result.best_epoch),
    )
    _write_manifest(
        out_dir / "manifest.json",
        "train",
        args,
        [str(best_path), str(log_path)] + epoch_paths,
    )
    print(f"best epoch {result.best_epoch} -> {best_path}")
    return EXIT_OK


def cmd_caption(args) -> int:
    if args.beam < 1 or args.max_len < 1:
        raise UsageError("--beam and --max-len must be >= 1")
    ckpt = load_checkpoint(args.ckpt)
    params = model_from_checkpoint(ckpt)
    vocab = ckpt.vocab
    try:
        vocab.start_id(args.lang)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    records = load_dataset(args.data, require_captions=False)
    # load_dataset guarantees one feature width per file
    width = records[0].feature.size
    if width != params.dims.feature:
        raise DatasetError(f"feature width {width} does not match model width {params.dims.feature}")
    if ckpt.config.get("feature_l2norm"):
        records = l2_normalize_records(records)
    out = Path(args.out)
    # decode into a sibling file so a failure leaves no partial output behind
    partial = out.with_name(out.name + ".partial")
    try:
        with partial.open("w", encoding="utf-8") as fh:
            for rec in records:
                tokens = generate_caption(
                    params, vocab, rec.feature, args.lang,
                    width=args.beam, max_len=args.max_len, length_norm=args.length_norm,
                )
                fh.write(f"{rec.image_id}\t{' '.join(tokens)}\n")
        os.replace(partial, out)
    finally:
        partial.unlink(missing_ok=True)
    _write_manifest(_manifest_path(out), "caption", args, [str(out)])
    print(f"wrote {len(records)} captions to {out}")
    return EXIT_OK


def _read_candidates(path) -> dict[str, list[str]]:
    candidates: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DatasetError(f"{path}:{lineno}: expected 'image_id<TAB>tokens'")
            image_id, text = line.split("\t", 1)
            if image_id in candidates:
                raise DatasetError(f"{path}:{lineno}: duplicate candidate for {image_id!r}")
            candidates[image_id] = text.split()
    if not candidates:
        raise DatasetError(f"{path}: no candidates found")
    return candidates


def cmd_evaluate(args) -> int:
    langs = _parse_langs(args.langs)
    cand_paths = [p.strip() for p in args.cands.split(",") if p.strip()]
    if langs is None or len(langs) != len(cand_paths):
        raise UsageError("--cands and --langs must list the same number of entries")
    records = load_dataset(args.data, lowercase=args.lowercase)
    by_id = {rec.image_id: rec for rec in records}
    report: dict = {"per_language": {}}
    pooled = []
    for lang, path in zip(langs, cand_paths):
        pairs = []
        for image_id, tokens in _read_candidates(path).items():
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
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _write_manifest(
            _manifest_path(args.out), "evaluate", args, [args.out]
        )
    return EXIT_OK


def cmd_synth(args) -> int:
    langs = _parse_langs(args.langs) or ["en", "jp"]
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    records = synth_generate(args.n, substream(args.seed, "synth"), langs)
    out = Path(args.out)
    save_dataset(records, out)
    _write_manifest(_manifest_path(out), "synth", args, [str(out)])
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be finite and positive, got {args.tolerance:g}")
    failures = 0
    for name, func, inputs in gradcheck.battery(args.seed):
        err = gradcheck.gradient_check(func, inputs)
        status = "ok" if err < args.tolerance else "FAIL"
        if status == "FAIL":
            failures += 1
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
