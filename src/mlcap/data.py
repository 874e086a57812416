"""Dataset I/O, splitting, checkpoint serialization, synthetic data.

Datasets are JSON Lines: one object per image with an ``image_id``, a fixed
width ``feature`` vector of JSON numbers, and a ``captions`` list of
``{lang, tokens}`` objects. An ``image_id`` holds no tab or line break
(caption output is tab-separated lines); every ``lang`` and token follows
``vocab.check_language`` and ``vocab.check_tokens``, and so does every
``Vocabulary``, a checkpoint's too. No string holds a lone surrogate.
Checkpoints are a single binary file: the ``MLCAP1`` magic, an 8-byte
little-endian header length, a JSON header (dimensions, vocabulary, array
manifest, training config, epoch), then the raw little-endian float64 array
bytes in manifest order. Datasets and checkpoints are written beside the
target and renamed over it (``atomic_open``), so a failed save leaves the
previous file whole. A ``Checkpoint`` holds the ``ModelParams`` it was
given, not copies; loading checks every length against the file size, then
streams each array into its own buffer. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .model import Dims, ModelParams, check_fields, param_shapes
from .rng import generator
from .vocab import Vocabulary, check_language, check_tokens

MAGIC = b"MLCAP1"
FORMAT_VERSION = 1


class DatasetError(ValueError):
    """A dataset file failed validation; messages carry line numbers."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, version-incompatible, or
    holds arrays that do not fit its dims or are not finite."""


@dataclass(frozen=True)
class Caption:
    language: str
    tokens: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ImageRecord:
    image_id: str
    feature: np.ndarray
    captions: tuple[Caption, ...]


@dataclass
class DatasetSplit:
    train: list[ImageRecord]
    val: list[ImageRecord]
    test: list[ImageRecord]


def _parse_captions(raw, where: str) -> tuple[Caption, ...]:
    if not isinstance(raw, list):
        raise DatasetError(f"{where}: captions must be a list")
    captions = []
    for j, entry in enumerate(raw):
        if not isinstance(entry, dict) or not isinstance(entry.get("lang"), str):
            raise DatasetError(f"{where}: captions[{j}] needs a string 'lang'")
        tokens = entry.get("tokens")
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DatasetError(f"{where}: captions[{j}] needs 'tokens' as a list of strings")
        try:
            check_language(entry["lang"])
            check_tokens(tokens)
        except ValueError as exc:
            raise DatasetError(f"{where}: captions[{j}] {exc}") from None
        captions.append(Caption(entry["lang"], tuple(tokens)))
    return tuple(captions)


def text_lines(path):
    """``(line number, line)`` for each line of a UTF-8 text file; a line that is not UTF-8 raises ``DatasetError``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # a byte that did not decode became a lone surrogate, which does not encode
            except UnicodeEncodeError as exc:
                raise DatasetError(f"{path}:{lineno}: not UTF-8 text (byte 0x{ord(line[exc.start]) - 0xDC00:02x})") from None
            yield lineno, line


def load_dataset(path, *, require_captions: bool = True) -> list[ImageRecord]:
    """Read and validate a JSONL dataset.

    Features must be finite JSON numbers, one width across the file; image
    ids must be unique and hold no tab or line break; caption tokens and
    each caption ``lang`` must pass ``check_tokens`` and ``check_language``;
    no string may be a JSON escape of a lone surrogate. With
    ``require_captions`` off (caption-generation inputs), records may omit
    captions entirely.
    """
    records: list[ImageRecord] = []
    seen_ids: set[str] = set()
    feature_dim: int | None = None
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line, parse_int=float)  # an integer past the float range reads as inf
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise DatasetError(f"{where}: each line must be a JSON object")
        if "\\u" in line:  # a JSON escape can spell a lone surrogate, which no UTF-8 output can hold
            try:
                json.dumps([obj.get("image_id"), obj.get("captions")], ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DatasetError(f"{where}: holds a lone surrogate {exc.object[exc.start]!r}, which is not text") from None
        image_id = obj.get("image_id")
        if not isinstance(image_id, str) or not image_id:
            raise DatasetError(f"{where}: missing or empty 'image_id'")
        # caption output is one 'image_id<TAB>tokens' line per image
        if any(c in image_id for c in "\t\n\r"):
            raise DatasetError(f"{where}: image_id {image_id!r} holds a tab or line break")
        if image_id in seen_ids:
            raise DatasetError(f"{where}: duplicate image_id {image_id!r}")
        seen_ids.add(image_id)
        raw_feature = obj.get("feature")
        if not isinstance(raw_feature, list) or not raw_feature:
            raise DatasetError(f"{where}: image_id {image_id!r} needs a non-empty 'feature' list")
        if not all(type(x) is float for x in raw_feature):
            raise DatasetError(f"{where}: image_id {image_id!r} has a non-numeric feature")
        feature = np.asarray(raw_feature, dtype=np.float64)
        if not np.isfinite(feature).all():
            raise DatasetError(f"{where}: image_id {image_id!r} feature must be finite")
        if feature_dim is None:
            feature_dim = feature.size
        elif feature.size != feature_dim:
            raise DatasetError(f"{where}: image_id {image_id!r} feature width {feature.size} != {feature_dim}")
        captions = _parse_captions(obj.get("captions", []), where)
        if require_captions and not captions:
            raise DatasetError(f"{where}: image_id {image_id!r} has no captions")
        records.append(ImageRecord(image_id, feature, captions))
    if not records:
        raise DatasetError(f"{path}: dataset is empty")
    return records


def save_dataset(records: Iterable[ImageRecord], path) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "image_id": rec.image_id,
                "feature": [float(x) for x in rec.feature],
                "captions": [{"lang": c.language, "tokens": list(c.tokens)} for c in rec.captions],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def corpus_from_records(records: Iterable[ImageRecord], languages=None) -> list[tuple[str, tuple[str, ...]]]:
    """Flatten records into (language, tokens) caption pairs."""
    keep = None if languages is None else set(languages)
    return [
        (c.language, c.tokens)
        for rec in records
        for c in rec.captions
        if keep is None or c.language in keep
    ]


def lowercase_records(records: Sequence[ImageRecord]) -> list[ImageRecord]:
    """Records with every caption token lowercased."""
    lower = lambda c: Caption(c.language, tuple(t.lower() for t in c.tokens))
    return [ImageRecord(rec.image_id, rec.feature, tuple(map(lower, rec.captions))) for rec in records]


def l2_normalize_records(records: Sequence[ImageRecord]) -> list[ImageRecord]:
    """Records with unit-norm features; an all-zero feature passes through.

    A feature whose squared norm is a normal float comes out as
    ``feature / np.linalg.norm(feature)``. One whose squared norm overflows
    or underflows is divided by its largest ``|x|`` first, so it comes out
    unit-norm too, not zeroed or unchanged."""
    out = []
    for rec in records:
        feature = rec.feature
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(feature))
        if math.isinf(norm) or norm * norm < np.finfo(float).tiny:  # the square left the normal range
            peak = float(np.abs(feature).max(initial=0.0))
            feature = feature / peak if peak > 0 else feature
            norm = float(np.linalg.norm(feature))
        out.append(ImageRecord(rec.image_id, feature / norm if norm > 0 else feature, rec.captions))
    return out


def check_split(parts) -> tuple:
    """``parts`` as a tuple: three non-negative int counts, or else three
    finite non-negative fractions (as floats) summing to at most 1."""
    parts = tuple(parts)
    if len(parts) != 3:
        raise ValueError("split needs exactly three parts (train, val, test)")
    if any(isinstance(p, (bool, np.bool_)) for p in parts):
        raise ValueError(f"split parts must be counts or fractions, not bools, got {parts}")
    if all(isinstance(p, int) for p in parts):
        if any(c < 0 for c in parts):
            raise ValueError(f"split counts must be non-negative, got {parts}")
        return parts
    fractions = tuple(float(p) for p in parts)
    if not all(math.isfinite(f) and f >= 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"split fractions must be finite, non-negative and sum to <= 1, got {parts}")
    return fractions


def split_dataset(records: Sequence[ImageRecord], parts, seed) -> DatasetSplit:
    """Shuffle once with the given seed, then slice into train/val/test.

    ``parts`` is three integers (absolute counts) or three floats
    (fractions of the record count, floored). Leftover records are dropped.
    """
    parts, total = check_split(parts), len(records)
    # a fraction counts the share it was written as (0.29 of 100 is 29), not how f * total rounds
    shares = parts if all(isinstance(p, int) for p in parts) else [Fraction(f).limit_denominator(10**9) * total for f in parts]
    counts = tuple(map(math.floor, shares))
    if sum(counts) > total:
        raise ValueError(f"split {counts} asks for more than the {total} records available")
    n_train, n_val, n_test = counts
    rng = generator(seed)
    order = rng.permutation(total)
    shuffled = [records[i] for i in order]
    return DatasetSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val : n_train + n_val + n_test],
    )


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    """A trained model snapshot: the ``ModelParams`` it was given (the arrays
    themselves, not copies) plus vocabulary, training config and epoch."""

    params: ModelParams
    vocab: Vocabulary
    config: dict
    epoch: int


def checkpoint_from_model(params: ModelParams, vocab: Vocabulary, config: dict, epoch: int) -> Checkpoint:
    """A checkpoint holding ``params`` itself; kept only because ``perfbench/`` calls it (ROADMAP item 1a)."""
    return Checkpoint(params, vocab, dict(config), int(epoch))


def model_from_checkpoint(ckpt: Checkpoint) -> ModelParams:
    """The checkpoint's own ``ModelParams``; kept only because ``perfbench/`` calls it (ROADMAP item 1a)."""
    return ckpt.params


@contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open the sibling ``<path>.partial`` for writing and rename it over
    ``path`` once the block completes; if the block raises, the sibling is
    removed and ``path`` keeps what it held before."""
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, mode, **kwargs) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    named = ckpt.params.named_parameters()
    header = {
        "format": MAGIC.decode("ascii"),
        "version": FORMAT_VERSION,
        "dims": asdict(ckpt.params.dims),
        "vocab": {"tokens": list(ckpt.vocab.id_to_token), "languages": list(ckpt.vocab.languages)},
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in named],
        "config": ckpt.config,
        "epoch": ckpt.epoch,
    }
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in named:
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))  # the array's own buffer when it is already <f8


def load_checkpoint(path) -> Checkpoint:
    """Check the header (the int version 1, positive int dims, the manifest, a dims.vocab-long
    vocabulary under the dataset's text rules, an object config, an int epoch >= 0) and every length
    against the file size before reading or allocating anything, then read each array into its own buffer."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        length = fh.read(8)
        if len(length) < 8:
            raise CheckpointError(f"{path}: truncated before header length")
        (header_len,) = struct.unpack("<Q", length)
        if header_len > size - fh.tell():
            raise CheckpointError(f"{path}: truncated inside header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header must be a JSON object")
        if type(header.get("version")) is not int or header["version"] != FORMAT_VERSION:  # True == 1.0 == 1
            raise CheckpointError(f"{path}: format version {header.get('version')!r} unsupported (expected {FORMAT_VERSION})")
        try:
            dims = Dims(**header["dims"])
            vocab = Vocabulary(header["vocab"]["tokens"], header["vocab"]["languages"])  # applies the text rules
            manifest = header["arrays"]
            config = header["config"]
            epoch = header["epoch"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: invalid header fields ({exc})") from exc
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise CheckpointError(f"{path}: header epoch must be an integer >= 0, got {epoch!r}")
        if not isinstance(config, dict):
            raise CheckpointError(f"{path}: header config must be a JSON object, got {type(config).__name__}")
        if len(vocab) != dims.vocab:
            raise CheckpointError(f"{path}: header lists {len(vocab)} vocabulary tokens but dims.vocab is {dims.vocab}")
        expected = param_shapes(dims)
        try:
            listed = [(entry["name"], tuple(entry["shape"])) for entry in manifest]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: invalid array manifest ({exc!r})") from exc
        if listed != list(expected.items()):
            raise CheckpointError(
                f"{path}: array manifest {listed} does not match the arrays of {dims}: {list(expected.items())}"
            )
        end = fh.tell()
        for name, shape in expected.items():
            end += 8 * math.prod(shape)
            if end > size:
                raise CheckpointError(f"{path}: truncated inside array {name!r}")
        if end != size:
            raise CheckpointError(f"{path}: {size - end} trailing bytes after arrays")
        arrays = {}
        for name, shape in expected.items():
            array = arrays[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(array) != array.nbytes:  # the file shrank since fstat
                raise CheckpointError(f"{path}: truncated inside array {name!r}")
            if not np.isfinite(array).all():
                raise CheckpointError(f"{path}: array {name!r} holds non-finite values")
    return Checkpoint(ModelParams(dims, **arrays), vocab, config, epoch)


# ---------------------------------------------------------------------------
# synthetic data

SYNTH_FEATURE_DIM = 16
SYNTH_NOISE = 0.05

_SYNTH_TABLES = [
    {
        "colors": ("red", "green", "blue", "yellow"),
        "shapes": ("circle", "square", "triangle", "star"),
        "template": "a {color} {shape}",
    },
    {
        "colors": ("aka", "midori", "ao", "kiiro"),
        "shapes": ("maru", "shikaku", "sankaku", "hoshi"),
        "template": "{shape} {color} desu",
    },
]


def _synth_table(index: int, language: str) -> dict:
    if index < len(_SYNTH_TABLES):
        return _SYNTH_TABLES[index]
    return {
        "colors": tuple(f"col{j}-{language}" for j in range(4)),
        "shapes": tuple(f"shp{j}-{language}" for j in range(4)),
        "template": "{color} {shape} end-" + language,
    }


def synth_generate(n_images: int, seed, languages: Sequence[str]) -> list[ImageRecord]:
    """Color/shape scenes with one caption per requested language.

    The feature one-hot encodes the (color, shape) pair over 16 slots plus
    uniform noise of amplitude 0.05. Word tables are assigned to languages
    in the order given and are disjoint across languages, so each caption
    set determines the attribute pair and vice versa.
    """
    check_fields("synth_generate", {"n_images": n_images}, ("n_images",))
    if isinstance(languages, str) or not all(isinstance(code, str) for code in languages):
        raise ValueError(f"languages must be a sequence of language codes, got {languages!r}")
    if not languages:
        raise ValueError("at least one language is required")
    if len(set(languages)) != len(languages):
        raise ValueError(f"duplicate language codes: {list(languages)}")
    for lang in languages:
        check_language(lang)
    tables = {lang: _synth_table(i, lang) for i, lang in enumerate(languages)}
    rng = generator(seed)
    records = []
    for i in range(n_images):
        color = int(rng.integers(0, 4))
        shape = int(rng.integers(0, 4))
        feature = np.zeros(SYNTH_FEATURE_DIM)
        feature[color * 4 + shape] = 1.0
        feature += rng.uniform(-SYNTH_NOISE, SYNTH_NOISE, SYNTH_FEATURE_DIM)
        captions = []
        for lang in languages:
            table = tables[lang]
            text = table["template"].format(color=table["colors"][color], shape=table["shapes"][shape])
            captions.append(Caption(lang, tuple(text.split())))
        records.append(ImageRecord(f"synth-{i:06d}", feature, tuple(captions)))
    return records
