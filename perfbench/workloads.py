"""The benchmark's three workloads.

Each workload is a closed loop with one caller: a round runs a fixed set of
operations back to back, and the benchmark repeats rounds until its time is
up. An operation is one train step, one image decode or one evaluate call.
Inputs come from the run seed; the model only sees the generated data.

Every workload also recomputes a small set of reference outputs from fixed
inputs (``REF_SEED``) and compares them with the values recorded in
``golden.json`` at the seed commit.

Calls go through module attributes (``trainer.generate_caption``) rather
than names imported here, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from mlcap import data, metrics, model, rng, trainer
from mlcap import vocab as vocab_mod

REF_SEED = 7
LANGS = ("en", "jp")


class Recorder:
    """Samples, operation counts and named correctness checks of one run."""

    def __init__(self, tracer=None):
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.round_s = 0.0
        self.tracer = tracer

    def add(self, kind: str, value: float) -> None:
        self.samples.setdefault(kind, []).append(value)

    def timed(self, kind: str, fn, *args, ops: int = 1, **kwargs):
        """Run ``fn`` as ``ops`` operations; None when it raised."""
        self.attempted += ops
        tracer = self.tracer
        if tracer is not None:
            tracer.in_op = True
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an operation failing is a result, not a crash
            self.failed += ops
            self.checks[f"{kind}.raised"] = False
            print(f"operation {kind} raised {type(exc).__name__}: {exc}", flush=True)
            return None
        finally:
            seconds = perf_counter() - start
            self.round_s += seconds
            if tracer is not None:
                tracer.in_op = False
                tracer.timed_wall_s += seconds
        self.add(kind, seconds)
        return out

    def verify(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a named check; a failure counts one failed operation."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += 1
            print(f"check {name} failed {detail}", flush=True)


@contextlib.contextmanager
def timing(module, attr: str, sink: list):
    """Time every call of ``module.attr`` into ``sink`` while active."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = perf_counter()
        out = original(*args, **kwargs)
        sink.append(perf_counter() - start)
        return out

    setattr(module, attr, timed)
    try:
        yield sink
    finally:
        setattr(module, attr, original)


def close_enough(got, want, rtol: float) -> bool:
    """Floats within ``rtol``, everything else exactly equal, recursively."""
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=rtol)
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(close_enough(g, w, rtol) for g, w in zip(got, want))
        )
    if isinstance(want, dict):
        return set(got) == set(want) and all(close_enough(got[k], want[k], rtol) for k in want)
    return got == want


def rates(rec: Recorder, kind: str) -> list[float]:
    """Per-operation rates (1/s) from the operation's timing samples."""
    return [1.0 / t for t in rec.samples.get(kind, [])]


def values(rec: Recorder, name: str) -> list[float]:
    return [rec.values[name]] if name in rec.values else []


def token_ids(vocab, tokens) -> list[int]:
    return [vocab.token_to_id[t] for t in tokens]


def report_dict(report) -> dict:
    """An evaluate report with the tf-idf cosine under its honest name.

    ``metrics.cider`` is a plain tf-idf cosine, not CIDEr-D, so the
    benchmark publishes it as ``consensus``.
    """
    out = report.as_dict()
    out["consensus"] = out.pop("cider")
    return out


# ---------------------------------------------------------------------------
# desk: the acceptance-fixture protocol


@dataclass(frozen=True)
class DeskSize:
    images: int
    split: tuple[int, int, int]
    hidden: int
    embed: int
    batch: int
    epochs: int
    ref_epochs: int
    ref_images: int
    beam: int = 5
    max_len: int = 30


@dataclass
class DeskState:
    split: data.DatasetSplit
    config: trainer.TrainConfig
    tokens_per_epoch: int
    steps_per_round: int
    first: tuple | None = None


class Desk:
    """Synthetic en+jp shapes, ``run_training`` with per-epoch validation and
    checkpoint save, then beam-5 captions of the test split in both
    languages."""

    name = "desk"
    throughput = "train_tokens_per_s"  # the table metric gated as throughput_per_s
    setup_reps = 3
    min_rounds = 1  # the repeat check compares a round with the warm-up round
    sizes = {
        "full": DeskSize(1200, (1000, 100, 100), 64, 64, 32, epochs=5, ref_epochs=6, ref_images=10),
        "smoke": DeskSize(60, (40, 10, 10), 8, 8, 8, epochs=2, ref_epochs=2, ref_images=3),
    }
    checks = (
        "desk.finite_loss", "desk.val_in_range", "desk.repeatable",
        "desk.reference.train_loss", "desk.reference.val_consensus", "desk.reference.best_epoch",
        "desk.reference.beam5_ids", "desk.reference.greedy_ids",
    )

    def __init__(self, size: DeskSize, workdir: Path):
        self.size = size
        self.workdir = workdir

    def setup(self, seed: int) -> DeskState:
        s = self.size
        # As `mlcap synth` then `mlcap train --data`: write the dataset, read it back.
        path = self.workdir / "desk.jsonl"
        data.save_dataset(data.synth_generate(s.images, rng.substream(seed, "synth"), LANGS), path)
        records = data.load_dataset(path)
        split = data.split_dataset(records, s.split, rng.substream(seed, "split"))
        config = trainer.TrainConfig(
            epochs=s.epochs, batch_size=s.batch, hidden=s.hidden, embed=s.embed,
            beam=s.beam, seed=seed, min_count=1,
        )
        captions = [c for r in split.train for c in r.captions if c.language in LANGS]
        tokens = sum(len(c.tokens) + 1 for c in captions)
        steps = s.epochs * math.ceil(len(captions) / s.batch)
        return DeskState(split, config, tokens, steps)

    def round(self, st: DeskState, rec: Recorder, index: int) -> None:
        s = self.size
        saves: list[float] = []

        def save_epoch(params, vocab, epoch):
            start = perf_counter()
            path = self.workdir / f"epoch_{epoch:03d}.ckpt"
            ckpt = data.checkpoint_from_model(params, vocab, st.config.as_dict(), epoch)
            data.save_checkpoint(path, ckpt)
            saves.append(perf_counter() - start)

        with timing(trainer, "train_epoch", []) as train_s:
            result = rec.timed(
                "run_training", trainer.run_training, st.split, st.config,
                save_epoch=save_epoch, ops=st.steps_per_round,
            )
        if result is None:
            return
        for stats, seconds, save_s in zip(result.history, train_s, saves):
            rec.add("train_tokens_per_s", st.tokens_per_epoch / seconds)
            rec.add("epoch_s", stats.seconds + save_s)
        captions = []
        for record in st.split.test:
            for lang in LANGS:
                tokens = rec.timed(
                    "decode_beam5", trainer.generate_caption, result.params, result.vocab,
                    record.feature, lang, width=s.beam, max_len=s.max_len,
                )
                captions.append(tokens)
        losses = [h.train_loss for h in result.history]
        vals = [h.val_score for h in result.history]
        rec.verify("desk.finite_loss", all(math.isfinite(x) for x in losses), str(losses))
        rec.verify("desk.val_in_range", all(0.0 <= v <= 1.0 for v in vals), str(vals))
        outcome = (losses, vals, result.best_epoch, captions)
        if st.first is None:
            st.first = outcome
        else:
            rec.verify("desk.repeatable", outcome == st.first, f"round {index} differs from round 0")
        rec.values["train_loss"] = losses[-1]
        rec.values["val_consensus"] = vals[result.best_epoch]

    def reference(self, st: DeskState | None) -> dict:
        """A shorter protocol on fixed data: history, selection and ids."""
        s = self.size
        ref = self.setup(REF_SEED)
        result = trainer.run_training(ref.split, replace(ref.config, epochs=s.ref_epochs))
        images = ref.split.test[: s.ref_images]

        def ids(width):
            return [
                token_ids(result.vocab, trainer.generate_caption(
                    result.params, result.vocab, r.feature, lang, width=width, max_len=s.max_len))
                for r in images for lang in LANGS
            ]

        return {
            "train_loss": [h.train_loss for h in result.history],
            "val_consensus": [h.val_score for h in result.history],
            "best_epoch": result.best_epoch,
            "beam5_ids": ids(s.beam),
            "greedy_ids": ids(1),
        }

    def table(self, rec: Recorder) -> dict:
        """Named metrics as {name: (samples, unit, better)}."""
        return {
            "train_tokens_per_s": (rec.samples.get("train_tokens_per_s", []), "1/s", "higher"),
            "epoch_s": (rec.samples.get("epoch_s", []), "s", "lower"),
            "decode_beam5_images_per_s": (rates(rec, "decode_beam5"), "1/s", "higher"),
            "train_loss": (values(rec, "train_loss"), "nats", "lower"),
            "val_consensus": (values(rec, "val_consensus"), "score", "higher"),
        }


# ---------------------------------------------------------------------------
# paper scale: random tokens, two languages with disjoint vocabularies


@dataclass(frozen=True)
class PaperSize:
    vocab: int
    embed: int
    hidden: int
    feature: int
    batch: int
    steps: int  # T: caption length including eos
    images: int
    ref_batch: int
    ref_steps: int
    max_len: int
    eval_images: int
    ref_eval_images: int
    image_pool: int
    refs: int = 5
    eval_words: int = 400


PAPER_SIZES = {
    "full": PaperSize(10_000, 512, 512, 2048, 128, 16, images=384, ref_batch=16, ref_steps=2,
                      max_len=16, eval_images=2000, ref_eval_images=200, image_pool=2),
    "smoke": PaperSize(200, 16, 16, 32, 8, 6, images=48, ref_batch=4, ref_steps=2,
                       max_len=6, eval_images=40, ref_eval_images=20, image_pool=2),
}


def token_records(size: PaperSize, gen: np.random.Generator) -> list[data.ImageRecord]:
    """Images with one random-token caption per language.

    Each language owns half of the surface vocabulary and every one of its
    tokens occurs at least once, so ``build_vocab`` with min_count 1 yields
    exactly ``size.vocab`` ids (pad, unk, eos and two start tokens included).
    """
    surface = size.vocab - 5
    lexicon = {
        "en": [f"en{i:05d}" for i in range((surface + 1) // 2)],
        "jp": [f"jp{i:05d}" for i in range(surface // 2)],
    }
    length = size.steps - 1
    streams = {}
    for lang, words in lexicon.items():
        need = size.images * length
        if need < len(words):
            raise ValueError(f"{size.images} images cannot hold all {len(words)} {lang} tokens")
        ids = np.concatenate([gen.permutation(len(words)), gen.integers(0, len(words), need - len(words))])
        gen.shuffle(ids)
        streams[lang] = ids.reshape(size.images, length)
    features = gen.standard_normal((size.images, size.feature))
    return [
        data.ImageRecord(
            f"img{i:05d}",
            features[i],
            tuple(
                data.Caption(lang, tuple(lexicon[lang][j] for j in streams[lang][i]))
                for lang in LANGS
            ),
        )
        for i in range(size.images)
    ]


def paper_vocab(size: PaperSize, records) -> vocab_mod.Vocabulary:
    vocab = vocab_mod.build_vocab(data.corpus_from_records(records), min_count=1)
    if len(vocab) != size.vocab:
        raise ValueError(f"vocabulary has {len(vocab)} ids, expected {size.vocab}")
    return vocab


@dataclass
class TrainState:
    params: model.ModelParams
    adam: trainer.AdamState
    config: trainer.TrainConfig
    batches: list[list[trainer.Example]]
    shuffle: np.random.Generator


class PaperTrain:
    """``train_epoch`` over one batch per call at V=10k, E=H=512, D=2048,
    B=128, T=16."""

    name = "paper-train"
    throughput = "train_tokens_per_s"
    setup_reps = 3
    min_rounds = 1
    sizes = PAPER_SIZES
    checks = ("paper-train.finite_loss", "paper-train.reference.losses")

    def __init__(self, size: PaperSize, workdir: Path):
        self.size = size
        self.workdir = workdir

    def setup(self, seed: int, batch: int | None = None) -> TrainState:
        s = self.size
        batch = batch or s.batch
        gen = np.random.default_rng([seed, 1])
        records = token_records(s, gen)
        vocab = paper_vocab(s, records)
        examples = trainer.examples_from_records(records, vocab, LANGS)
        order = gen.permutation(len(examples))
        batches = [
            [examples[i] for i in order[lo : lo + batch]]
            for lo in range(0, len(order) - batch + 1, batch)
        ]
        dims = model.Dims(len(vocab), s.embed, s.hidden, s.feature)
        params = model.init_params(dims, rng.substream(seed, "init"))
        adam = trainer.AdamState.for_params(params)
        config = trainer.TrainConfig(batch_size=batch, hidden=s.hidden, embed=s.embed, min_count=1)
        return TrainState(params, adam, config, batches, rng.substream(seed, "shuffle"))

    def _step(self, st: TrainState, index: int) -> float:
        return trainer.train_epoch(st.batches[index % len(st.batches)], st.params, st.adam, st.config, st.shuffle)

    def round(self, st: TrainState, rec: Recorder, index: int) -> None:
        loss = rec.timed("train_step", self._step, st, index)
        if loss is None:
            return
        tokens = self.size.batch * self.size.steps
        rec.add("train_tokens_per_s", tokens / rec.samples["train_step"][-1])
        limit = 2.0 * math.log(self.size.vocab)
        rec.verify("paper-train.finite_loss", math.isfinite(loss) and 0.0 < loss < limit, f"loss {loss}")
        rec.add("train_loss", loss)

    def reference(self, st: TrainState | None) -> dict:
        """Losses of the first steps from a fixed init on fixed data."""
        s = self.size
        ref = self.setup(REF_SEED, batch=s.ref_batch)
        return {"losses": [self._step(ref, i) for i in range(s.ref_steps)]}

    def table(self, rec: Recorder) -> dict:
        return {
            "train_tokens_per_s": (rec.samples.get("train_tokens_per_s", []), "1/s", "higher"),
            "train_loss": (rec.samples.get("train_loss", []), "nats", "lower"),
        }


def eval_pairs(size: PaperSize, gen: np.random.Generator, n_images: int):
    """Candidates that partly copy one of their five references.

    Words follow a Zipf law over a small lexicon, so n-grams of every order
    are shared across images and the matching paths of BLEU and the
    consensus score do real work.
    """
    words = [f"w{i}" for i in range(size.eval_words)]
    weights = 1.0 / np.arange(1, size.eval_words + 1)
    cdf = np.cumsum(weights / weights.sum())

    def sentence(n):
        return tuple(words[min(j, size.eval_words - 1)] for j in np.searchsorted(cdf, gen.random(n)))

    pairs = []
    for _ in range(n_images):
        refs = [sentence(int(gen.integers(8, 15))) for _ in range(size.refs)]
        base = refs[int(gen.integers(size.refs))]
        keep = int(gen.integers(2, len(base) + 1))
        start = int(gen.integers(0, len(base) - keep + 1))
        cand = base[start : start + keep] + sentence(int(gen.integers(0, 6)))
        pairs.append((cand, refs))
    return pairs


@dataclass
class DecodeState:
    params: model.ModelParams
    vocab: vocab_mod.Vocabulary
    features: np.ndarray
    corpus: metrics.CorpusEval
    candidate_tokens: int
    seen: dict
    first_report: dict | None = None


class PaperDecode:
    """Beam-5 and greedy captions from a paper-scale checkpoint, and
    ``evaluate_corpus`` on a 2000-image corpus with five references each."""

    name = "paper-decode"
    throughput = "decode_beam5_images_per_s"
    setup_reps = 3
    sizes = PAPER_SIZES
    checks = (
        "paper-decode.valid_caption", "paper-decode.repeatable", "paper-decode.report_in_range",
        "paper-decode.reference.beam5_ids", "paper-decode.reference.greedy_ids",
        "paper-decode.reference.report",
    )

    def __init__(self, size: PaperSize, workdir: Path):
        self.size = size
        self.workdir = workdir
        self.min_rounds = size.image_pool  # with the warm-up, until an image is decoded twice

    def setup(self, seed: int) -> DecodeState:
        """Write a checkpoint from a fixed-seed init, load it back, and draw
        the images and the evaluation corpus from the run seed."""
        s = self.size
        vocab = paper_vocab(s, token_records(s, np.random.default_rng([REF_SEED, 1])))
        dims = model.Dims(len(vocab), s.embed, s.hidden, s.feature)
        params = model.init_params(dims, rng.substream(REF_SEED, "init"))
        path = self.workdir / "paper.ckpt"
        data.save_checkpoint(path, data.checkpoint_from_model(params, vocab, {}, 0))
        del params
        ckpt = data.load_checkpoint(path)
        params = data.model_from_checkpoint(ckpt)
        gen = np.random.default_rng([seed, 2])
        features = gen.standard_normal((s.image_pool, s.feature))
        pairs = eval_pairs(s, gen, s.eval_images)
        corpus = metrics.CorpusEval.from_pairs(pairs)
        return DecodeState(params, ckpt.vocab, features, corpus, sum(len(c) for c, _ in pairs), {})

    def _caption(self, st: DecodeState, feature, lang: str, width: int):
        return trainer.generate_caption(st.params, st.vocab, feature, lang, width=width, max_len=self.size.max_len)

    def round(self, st: DecodeState, rec: Recorder, index: int) -> None:
        s = self.size
        image = index % s.image_pool
        lang = LANGS[index % 2]
        feature = st.features[image]
        beam5 = rec.timed("decode_beam5", self._caption, st, feature, lang, 5)
        greedy = rec.timed("decode_greedy", self._caption, st, feature, lang, 1)
        report = rec.timed("evaluate", metrics.evaluate_corpus, st.corpus)
        surface = set(st.vocab.id_to_token[st.vocab.first_surface_id :])
        for caption in (beam5, greedy):
            if caption is not None:
                ok = len(caption) <= s.max_len and set(caption) <= surface
                rec.verify("paper-decode.valid_caption", ok, str(caption))
        if beam5 is not None and greedy is not None:
            key = (image, lang)
            if key in st.seen:
                rec.verify("paper-decode.repeatable", st.seen[key] == (beam5, greedy), f"image {key}")
            st.seen[key] = (beam5, greedy)
        if report is not None:
            got = report_dict(report)
            ok = (
                all(0.0 <= got[k] <= 1.0 for k in ("bleu1", "bleu2", "bleu3", "bleu4", "consensus"))
                and got["images"] == s.eval_images
                and got["candidate_tokens"] == st.candidate_tokens
            )
            rec.verify("paper-decode.report_in_range", ok, str(got))
            if st.first_report is None:
                st.first_report = got
            else:
                rec.verify("paper-decode.repeatable", got == st.first_report, "evaluate report changed")
            rec.values["consensus"] = got["consensus"]
            rec.values["bleu4"] = got["bleu4"]

    def reference(self, st: DecodeState) -> dict:
        """Ids for one fixed image and the report of a fixed corpus."""
        s = self.size
        gen = np.random.default_rng([REF_SEED, 2])
        feature = gen.standard_normal((1, s.feature))[0]
        corpus = metrics.CorpusEval.from_pairs(eval_pairs(s, gen, s.ref_eval_images))
        return {
            "beam5_ids": [token_ids(st.vocab, self._caption(st, feature, "en", 5))],
            "greedy_ids": [token_ids(st.vocab, self._caption(st, feature, lang, 1)) for lang in LANGS],
            "report": report_dict(metrics.evaluate_corpus(corpus)),
        }

    def table(self, rec: Recorder) -> dict:
        return {
            "decode_beam5_images_per_s": (rates(rec, "decode_beam5"), "1/s", "higher"),
            "decode_greedy_images_per_s": (rates(rec, "decode_greedy"), "1/s", "higher"),
            "evaluate_s": (rec.samples.get("evaluate", []), "s", "lower"),
            "consensus": (values(rec, "consensus"), "score", "higher"),
            "bleu4": (values(rec, "bleu4"), "score", "higher"),
        }


WORKLOADS = {w.name: w for w in (Desk, PaperTrain, PaperDecode)}

# Relative tolerance for recorded floats. Runs repeat bit for bit on one
# machine; the slack covers a different BLAS kernel reordering sums.
RTOL = 1e-6
