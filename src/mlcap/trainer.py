"""Training: batched NLL over caption tokens, Adam, consensus-score model selection.

Each (image, caption, language) pair is an independent training example;
languages mix freely inside a batch, distinguished only by their start
token. A batch pads captions to the longest one with the padding id, which
the loss skips: it averages over the real target positions by default (an
optional mode keeps the raw sum). Every epoch reshuffles with its own rng
stream, decodes each language's validation images with ``decode_images``
(the one decoder entry, shared with ``mlcap caption``) and scores them with
the consensus metric; the checkpoint kept is the epoch whose unweighted
mean across languages is highest, earliest on ties. Adam's constants
(``ADAM_*``, Kingma & Ba) and the clipping norm ``CLIP_NORM`` are fixed;
a finite gradient whose squared norm overflows is clipped, not zeroed.

A training step keeps a bounded working set. ``model.BLOCK_CELLS`` caps
every working ``[rows,V]`` array, in training and in decoding alike: the
output head runs over ``model.row_blocks`` of the hidden rows, so no
``[T*B,V]`` logits array exists, and the ``w_out`` gradient adds each block
in ``row_blocks`` chunks of its rows. While the head runs, the recurrence
holds only its gates and hidden rows; its pullback is handed the inputs
again and recomputes the cells.
``adam_step`` updates each parameter in slices of about ``ADAM_SLICE``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .beam import BeamConfig, beam_block
from .data import DatasetSplit, ImageRecord, corpus_from_records, l2_normalize_records, lowercase_records
from .metrics import CorpusEval, cider
from .model import Dims, ModelParams, check_fields, init_params, row_blocks
from .rng import check_seed, substream
from .vocab import PAD_ID, Vocabulary, build_vocab, check_collisions, check_language

CLIP_NORM = 5.0
ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 1e-3, 0.9, 0.999, 1e-8  # Kingma & Ba; read at each adam_step
LOSS_MODES = ("mean", "sum")
ADAM_SLICE = 2**15  # elements per Adam slice; at paper scale 2**15 beat 2**18, 2**21 and whole arrays


class NonFiniteError(ValueError):
    """The output head met NaN or infinite logits, which its cross-entropy needs finite."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient.

    ``batch`` counts from zero within the epoch; ``run_training`` fills in
    ``epoch``, which stays ``None`` when ``train_epoch`` is called alone.
    """

    def __init__(self, batch: int, epoch: int | None = None):
        super().__init__(batch, epoch)
        self.batch = batch
        self.epoch = epoch

    def __str__(self) -> str:
        where = f"batch {self.batch}" if self.epoch is None else f"epoch {self.epoch}, batch {self.batch}"
        return f"training diverged: non-finite loss or gradient in {where}"


@dataclass(frozen=True)
class TrainConfig:
    """Run settings; defaults follow the reference captioning protocol.
    ``run_training`` applies ``lowercase`` and ``feature_l2norm`` to the records
    it is given; ``mlcap caption`` re-applies a checkpoint's ``feature_l2norm``."""

    epochs: int = 40
    batch_size: int = 128
    hidden: int = 512
    embed: int = 512
    beam: int = BeamConfig.width  # no decode reads it; kept only because perfbench/ passes it, until ROADMAP item 1a
    val_beam: int = 1
    max_len: int = BeamConfig.max_len
    seed: int = 42
    min_count: int = 5
    languages: tuple[str, ...] | None = None
    loss_mode: str = "mean"
    clip: bool = False
    lowercase: bool = False
    feature_l2norm: bool = False

    def __post_init__(self):
        counts = ("epochs", "batch_size", "hidden", "embed", "beam", "val_beam", "max_len", "min_count")
        check_fields("config", vars(self), counts, ("clip", "lowercase", "feature_l2norm"))
        check_seed(self.seed)
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"config.loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if (langs := self.languages) is not None:
            if not (isinstance(langs, tuple) and langs and all(isinstance(code, str) for code in langs) and len(set(langs)) == len(langs)):
                raise ValueError(f"config.languages must be None or a non-empty tuple of distinct language codes, got {langs!r}")
            for code in langs:
                check_language(code)

    def as_dict(self) -> dict:
        """The fields as a JSON-ready dict, ``languages`` as a list and ``seed`` as an int."""
        d = asdict(self) | {"seed": int(self.seed)}
        if self.languages is not None:
            d["languages"] = list(self.languages)
        return d


@dataclass(frozen=True)
class Example:
    """One training pair: a feature, a start id, and target ids ending in eos."""

    feature: np.ndarray
    start_id: int
    target_ids: tuple[int, ...]


@dataclass
class Batch:
    """Row-stacked examples padded to a common length with ``PAD_ID``."""

    features: np.ndarray   # [B, D] float64
    start_ids: np.ndarray  # [B] int64
    targets: np.ndarray    # [B, T] int64, PAD_ID past each caption's eos

    @property
    def token_count(self) -> int:
        return int(np.count_nonzero(self.targets != PAD_ID))


def examples_from_records(records: Iterable[ImageRecord], vocab: Vocabulary, languages: Sequence[str]) -> list[Example]:
    keep = set(languages)
    examples = []
    for rec in records:
        for cap in rec.captions:
            if cap.language in keep:
                ids = vocab.encode(cap.tokens, cap.language)
                examples.append(Example(rec.feature, vocab.start_id(cap.language), ids))
    return examples


def make_batch(examples: Sequence[Example]) -> Batch:
    """Stack ``examples`` into one ``Batch``, each target row padded to the longest."""
    if not examples:
        raise ValueError("cannot build an empty batch")
    start_ids = np.array([ex.start_id for ex in examples], dtype=np.int64)
    lengths = np.array([len(ex.target_ids) for ex in examples])
    ids = np.fromiter(chain.from_iterable(ex.target_ids for ex in examples), dtype=np.int64, count=lengths.sum())
    features = np.array([ex.feature for ex in examples], dtype=np.float64)
    real = np.arange(lengths.max()) < lengths[:, None]
    targets = np.full(real.shape, PAD_ID, dtype=np.int64)
    targets[real] = ids  # a boolean mask fills row by row, in the order the ids are chained
    return Batch(features, start_ids, targets)


def _output_head(hidden: np.ndarray, targets: np.ndarray, weights: np.ndarray, params: ModelParams):
    """The output head and its cross-entropy, forward and backward, over ``row_blocks`` of ``hidden``.

    Returns ``(nll, dhidden, dw_out, db_out)``: each row's negative
    log-likelihood of its target, and the gradients of ``sum(weights * nll)``.
    One block buffer goes logits -> exp -> dlogits; the first block writes
    ``dw_out`` and the later ones add theirs in ``row_blocks`` chunks of its
    rows, through one chunk-sized buffer. A row of a matmul keeps its bits
    however the rows are cut, so the chunks change no bit.
    """
    w_out = params.w_out
    vocab = w_out.shape[1]
    blocks = row_blocks(len(hidden), vocab)
    chunks = row_blocks(w_out.shape[0], vocab)
    logits_buffer = np.empty((blocks[0].stop, vocab), w_out.dtype)  # the first block and chunk are the tallest
    partial = np.empty((chunks[0].stop, vocab), w_out.dtype) if len(blocks) > 1 else None
    nll = np.empty(len(hidden), w_out.dtype)
    dhidden = np.empty_like(hidden)
    dw_out = np.empty_like(w_out)
    for block in blocks:
        h, t = hidden[block], targets[block]
        rows = np.arange(t.size)
        logits = np.matmul(h, w_out, out=logits_buffer[: t.size])
        logits += params.b_out
        top = logits.max(axis=1, keepdims=True)
        # a NaN or +inf makes its row's max non-finite, and a -inf the block's min
        if not (np.isfinite(top).all() and math.isfinite(logits.min())):
            raise NonFiniteError("sequence_loss: logits must be finite")
        logits -= top
        picked = logits[rows, t]
        exp = np.exp(logits, out=logits)
        sums = exp.sum(axis=1)
        nll[block] = np.log(sums) - picked
        dlogits = exp
        dlogits /= sums[:, None]
        dlogits[rows, t] -= 1.0
        dlogits *= weights[block, None]
        np.matmul(dlogits, w_out.T, out=dhidden[block])
        if block.start == 0:
            np.matmul(h.T, dlogits, out=dw_out)
            db_out = dlogits.sum(axis=0)
        else:
            for chunk in chunks:
                dw_out[chunk] += np.matmul(h[:, chunk].T, dlogits, out=partial[: chunk.stop - chunk.start])
            db_out += dlogits.sum(axis=0)
    return nll, dhidden, dw_out, db_out


def sequence_loss(batch: Batch, params: ModelParams, mode: str = "mean") -> tuple[float, dict[str, np.ndarray]]:
    """Teacher-forced NLL of every target position that is not ``PAD_ID``, and its gradients.

    Returns ``(loss, grads)`` with ``grads`` keyed in ``param_shapes`` order. The
    image feature is the first input step (its output distribution is not
    scored), the start token the second; thereafter each target token is
    also the next input. Padding advances the state but is not scored. The
    forward pass runs first, then the backward pass in reverse, by hand; the
    output head runs over row blocks of at most ``model.BLOCK_CELLS`` logits.
    Raises ``NonFiniteError`` on non-finite logits and ``IndexError`` on an
    id outside the vocabulary.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"loss mode must be one of {LOSS_MODES}, got {mode!r}")
    token_count = batch.token_count
    if token_count == 0:
        raise ValueError("sequence_loss: batch holds only padding, no target positions")
    vocab = params.dims.vocab
    for ids in (batch.start_ids, batch.targets):
        if ids.size and (ids.min() < 0 or ids.max() >= vocab):
            raise IndexError(f"sequence_loss: token id out of range for a vocabulary of {vocab}")
    # every [T*B, .] array is time-major: row t*B+b is step t of example b;
    # the token inputs are every start id, then each target column but the last
    batch_size = batch.start_ids.size
    features = batch.features.astype(params.w_image.dtype, copy=False)  # the parameters set the compute dtype
    ids = np.concatenate((batch.start_ids, batch.targets[:, :-1].T.ravel()))
    inputs = lambda: np.concatenate((features @ params.w_image + params.b_image, params.w_embed[ids]))
    hidden, lstm_pullback = ad.lstm_sequence(inputs(), batch_size, params.w_x, params.w_h, params.b_gates)
    weights = batch.targets.T.ravel() != PAD_ID
    scale = 1.0 / token_count if mode == "mean" else 1.0
    nll, dhidden, dw_out, db_out = _output_head(hidden, batch.targets.T.ravel(), weights * scale, params)
    del hidden  # the pullback frees the hidden rows after its last read of them
    loss = (nll * weights).sum() * scale
    dx, dw_x, dw_h, db_gates = lstm_pullback(dhidden, inputs())  # built again: nothing held them during the head
    del lstm_pullback, dhidden  # free the gates buffer before the dense w_embed gradient
    dimage = dx[:batch_size]
    # each id's rows summed in order from zero, as np.add.at would, through one flat bincount, which is float64
    embed = params.dims.embed
    cells = (ids[:, None] * embed + np.arange(embed)).ravel()
    dw_embed = np.bincount(cells, dx[batch_size:].ravel(), vocab * embed).reshape(vocab, embed).astype(dx.dtype, copy=False)
    del cells
    grads = {
        "w_embed": dw_embed,
        "w_image": features.T @ dimage,
        "b_image": dimage.sum(axis=0),
        "w_x": dw_x,
        "w_h": dw_h,
        "b_gates": db_gates,
        "w_out": dw_out,
        "b_out": db_out,
    }
    return float(loss), grads


@dataclass
class AdamState:
    """Moment accumulators per parameter, ``adam_step``'s two scratch buffers and the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        named = params.named_parameters()
        zeros = lambda: {name: np.zeros_like(p) for name, p in named}
        # a slice holds whole rows, so one row wider than ADAM_SLICE is a slice of its own
        width = max(ADAM_SLICE, max(p.size // len(p) for _, p in named))
        return cls(m=zeros(), v=zeros(), scratch=(np.empty(width, params.w_out.dtype), np.empty(width, params.w_out.dtype)))


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    theta <- theta - alpha * m_hat / (sqrt(v_hat) + eps), with the epsilon
    outside the square root. Each parameter is updated in slices along its
    first axis, of about ``ADAM_SLICE`` elements and at least one row, so
    every operand stays in cache. The moments update in place and the step
    is built in ``state.scratch``, shaped once per parameter, one
    rounding per operation in the textbook order, so the arrays match the
    out-of-place update bit for bit.
    """
    named = params.named_parameters()
    for name, p in named:
        if name not in grads:
            raise ValueError(f"adam_step: missing gradient for {name!r}")
        if grads[name].shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {grads[name].shape} != parameter shape {p.shape} for {name!r}")
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1**state.t
    correction2 = 1.0 - ADAM_BETA2**state.t
    for name, whole in named:
        row = whole.size // len(whole)
        rows = max(1, ADAM_SLICE // row)
        scratch = [buf[: rows * row].reshape((rows,) + whole.shape[1:]) for buf in state.scratch]
        for lo in range(0, len(whole), rows):
            p, g, m, v = (a[lo : lo + rows] for a in (whole, grads[name], state.m[name], state.v[name]))
            step, denom = (buf[: len(p)] for buf in scratch)
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
            v *= ADAM_BETA2
            np.multiply(g, g, out=denom)
            v += np.multiply(denom, 1.0 - ADAM_BETA2, out=denom)
            np.divide(m, correction1, out=step)
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step *= ADAM_ALPHA
            step /= denom
            p -= step


def clip_gradients(grads: dict[str, np.ndarray]) -> float:
    """Scale all gradients so their global L2 norm is at most ``CLIP_NORM``; returns the norm before."""
    scale = 1.0
    with np.errstate(over="ignore"):
        norm = math.sqrt(math.fsum(float((g * g).sum()) for g in grads.values()))
    if math.isinf(norm):  # finite entries whose squares overflow: measure relative to the largest
        scale = max(float(np.abs(g).max(initial=0.0)) for g in grads.values())
        norm = math.sqrt(math.fsum(float(np.square(g / scale).sum()) for g in grads.values()))
    if norm * scale > CLIP_NORM:
        factor = CLIP_NORM / scale / norm
        for g in grads.values():
            g *= factor
    return norm * scale


def train_epoch(
    examples: Sequence[Example],
    params: ModelParams,
    adam: AdamState,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass; returns the token-weighted mean NLL per token.

    Each run of ``batch_size`` shuffled examples goes to ``make_batch`` as it
    comes, so nothing epoch-sized is built. Raises ``DivergenceError``
    before any update that a non-finite loss or gradient would poison.
    """
    if not examples:
        raise ValueError("train_epoch: no training examples")
    shuffled = [examples[i] for i in rng.permutation(len(examples)).tolist()]
    nll_sum = 0.0
    token_sum = 0
    for index, lo in enumerate(range(0, len(shuffled), config.batch_size)):
        batch = make_batch(shuffled[lo : lo + config.batch_size])
        try:
            loss, grads = sequence_loss(batch, params, config.loss_mode)
        except NonFiniteError as exc:
            raise DivergenceError(index) from exc
        if not (math.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
            raise DivergenceError(index)
        if config.clip:
            clip_gradients(grads)
        adam_step(params, grads, adam)
        n = batch.token_count
        nll_sum += loss * (n if config.loss_mode == "mean" else 1.0)
        token_sum += n
    return nll_sum / token_sum


def decode_images(
    params: ModelParams, vocab: Vocabulary, features, language: str, width: int, max_len: int, length_norm=False
) -> list[list[str]]:
    """Decode each image of ``features`` ([N,D], or N D-vectors) in ``language``, as surface tokens.

    Padding and every start id are barred from emission. The images decode
    as ``beam_block`` beams in ``row_blocks`` slices of at most ``max(2,
    model.BLOCK_CELLS // (V * width))`` images, one block call each, so every live
    hypothesis of a block steps in one ``step_rows`` call. Width 1 is
    greedy decoding. A block decodes each image as it would alone.
    """
    config = BeamConfig(width=width, max_len=max_len, exclude_ids=(PAD_ID,) + vocab.start_ids, length_norm=length_norm)
    start_id = vocab.start_id(language)
    blocks = row_blocks(len(features), params.dims.vocab * width)
    decoded = [ranked[0][0] for block in blocks for ranked in beam_block(features[block], start_id, params, config)]
    return [vocab.decode(ids) for ids in decoded]


def generate_caption(
    params: ModelParams, vocab: Vocabulary, feature, language: str, width: int, max_len: int
) -> list[str]:
    """``decode_images`` on one row, kept only because ``perfbench/`` calls it; it goes with ROADMAP item 1a."""
    return decode_images(params, vocab, [feature], language, width, max_len)[0]


def validation_score(
    params: ModelParams,
    vocab: Vocabulary,
    records: Sequence[ImageRecord],
    languages: Sequence[str],
    width: int,
    max_len: int,
) -> float:
    """Unweighted mean over languages of the consensus score on decodes,
    each language's images decoded by one ``decode_images`` call."""
    per_language = []
    for lang in languages:
        kept = [rec for rec in records if any(c.language == lang for c in rec.captions)]
        if not kept:
            continue
        cands = decode_images(params, vocab, [rec.feature for rec in kept], lang, width, max_len)
        pairs = [(cand, [c.tokens for c in rec.captions if c.language == lang]) for cand, rec in zip(cands, kept)]
        per_language.append(cider(CorpusEval.from_pairs(pairs)))
    if not per_language:
        return 0.0
    return math.fsum(per_language) / len(per_language)


@dataclass
class EpochStats:
    train_loss: float
    val_score: float
    seconds: float


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocabulary
    history: list[EpochStats]
    best_epoch: int


def training_languages(split: DatasetSplit, config: TrainConfig) -> list[str]:
    """The languages ``run_training`` trains on.

    Raises ValueError unless the split has training images and both training
    and validation captions in each of those languages, or if a training
    token (after ``config.lowercase``) is spelled like a control token.
    """
    if not split.train:
        raise ValueError("run_training: empty training split")
    languages = (
        list(config.languages)
        if config.languages is not None
        else sorted({c.language for r in split.train for c in r.captions})
    )
    if not languages:
        raise ValueError("run_training: no languages found in the training split")
    # the validation score is the unweighted mean over every training language,
    # and a language without training captions has no start token to decode from
    for records, what in ((split.val, "validation captions"), (split.train, "captions")):
        present = {c.language for r in records for c in r.captions}
        missing = [lang for lang in languages if lang not in present]
        if missing:
            raise ValueError(f"run_training: no {what} in languages {missing}")
    tokens = {t for r in split.train for c in r.captions if c.language in languages for t in c.tokens}
    check_collisions({t.lower() for t in tokens} if config.lowercase else tokens, languages)
    return languages


def run_training(
    split: DatasetSplit,
    config: TrainConfig,
    *,
    log: Callable[[str], None] | None = None,
    save_epoch: Callable[[ModelParams, Vocabulary, int], None] | None = None,
) -> TrainResult:
    """The full protocol: build vocab, init, train, select the best epoch.

    Emits one tab-separated line per epoch (index, mean train loss,
    validation score, wall seconds) through ``log``. ``save_epoch`` is
    called with the parameters and vocabulary after every epoch; the
    returned parameters are a copy of the best epoch, not the last.
    """
    languages = training_languages(split, config)
    train, val = split.train, split.val
    if config.lowercase:
        train, val = lowercase_records(train), lowercase_records(val)
    if config.feature_l2norm:
        train, val = l2_normalize_records(train), l2_normalize_records(val)
    corpus = corpus_from_records(train, languages)
    vocab = build_vocab(corpus, config.min_count)
    feature_dim = int(train[0].feature.size)
    dims = Dims(len(vocab), config.embed, config.hidden, feature_dim)
    params = init_params(dims, substream(config.seed, "init"))
    adam = AdamState.for_params(params)
    shuffle_rng = substream(config.seed, "shuffle")
    examples = examples_from_records(train, vocab, languages)
    history: list[EpochStats] = []
    best_epoch, best_score, best_arrays = -1, -np.inf, {}
    for epoch in range(config.epochs):
        started = time.perf_counter()
        try:
            train_loss = train_epoch(examples, params, adam, config, shuffle_rng)
        except DivergenceError as exc:
            exc.epoch = epoch
            raise
        val_score = validation_score(params, vocab, val, languages, config.val_beam, config.max_len)
        seconds = time.perf_counter() - started
        history.append(EpochStats(train_loss, val_score, seconds))
        if log is not None:
            log(f"{epoch}\t{train_loss:.6f}\t{val_score:.6f}\t{seconds:.3f}")
        if save_epoch is not None:
            save_epoch(params, vocab, epoch)
        if val_score > best_score:
            best_epoch, best_score = epoch, val_score
            best_arrays = {name: p.copy() for name, p in params.named_parameters()}
    return TrainResult(ModelParams(dims, **best_arrays), vocab, history, best_epoch)
