"""Corpus-level BLEU and a plain consensus (tf-idf cosine) caption score.

BLEU-n here is the corpus formulation: clipped k-gram matches and k-gram
totals are accumulated over the whole corpus before dividing, the geometric
mean runs over k = 1..n with uniform weights, and the brevity penalty
exp(1 - r/c) (capped at 1) uses the per-image reference length closest to
the candidate length, shorter on ties. Any zero precision zeroes the score;
there is no smoothing.

The consensus score averages, over images and over n-gram orders 1..4, the
cosine similarity between tf-idf vectors of the candidate and of each
reference; it is not CIDEr-D (no length penalty, clipping or x10 scale).
Term frequency is the raw within-sentence count; document frequency counts
the images whose reference set contains the n-gram, and a candidate n-gram
in no reference counts as in one. Scores live in [0, 1]; a candidate or
reference with an all-zero vector contributes zero for that order.

Both scores come from one table per call: each order counts every candidate
and reference once, and its clipped matches, document frequencies and
cosines are read from those counts. Nothing is kept between calls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

NGRAM_ORDERS = (1, 2, 3, 4)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """The n-grams of one sentence, keyed by token tuple, with their counts."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


@dataclass(frozen=True)
class EvalItem:
    """One image: the candidate caption and its reference captions."""

    candidate: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.references:
            raise ValueError("every image needs at least one reference caption")


@dataclass(frozen=True)
class CorpusEval:
    """All evaluation items for one language (or pooled across languages)."""

    items: tuple[EvalItem, ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("cannot evaluate an empty corpus")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Sequence[str], Sequence[Sequence[str]]]]):
        items = tuple(
            EvalItem(tuple(cand), tuple(tuple(r) for r in refs)) for cand, refs in pairs
        )
        return cls(items)


@dataclass(frozen=True)
class MetricReport:
    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    cider: float
    images: int
    candidate_tokens: int

    def as_dict(self) -> dict:
        return asdict(self)


def _closest_reference_length(item: EvalItem) -> int:
    c = len(item.candidate)
    return min((len(ref) for ref in item.references), key=lambda r: (abs(r - c), r))


def _bleu(matched: list[int], totals: list[int], c: int, r: int) -> list[float]:
    """BLEU-1..4 from per-order clipped matches and candidate n-gram totals."""
    scores = [0.0] * len(NGRAM_ORDERS)
    if c == 0:
        return scores
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    log_precision_sum = 0.0
    for k, (hits, total) in enumerate(zip(matched, totals)):
        if hits == 0:
            break
        log_precision_sum += math.log(hits / total)
        scores[k] = brevity * math.exp(log_precision_sum / (k + 1))
    return scores


def _similarities(counts: list, doc_freq: Counter, m: int) -> list[float]:
    """Each image's mean tf-idf cosine to its references at one order."""
    idf = {gram: math.log(m / df) for gram, df in doc_freq.items()}
    unseen = math.log(m)
    out = []
    for cand, refs in counts:
        cand_vec = {gram: cnt * idf.get(gram, unseen) for gram, cnt in cand.items()}
        cand_norm = math.sqrt(math.fsum([x * x for x in cand_vec.values()]))
        sims = []
        for ref in refs:
            ref_vec = {gram: cnt * idf[gram] for gram, cnt in ref.items()}
            ref_norm = math.sqrt(math.fsum([x * x for x in ref_vec.values()]))
            dot = math.fsum([x * ref_vec[gram] for gram, x in cand_vec.items() if gram in ref_vec])
            sims.append(dot / (cand_norm * ref_norm) if cand_norm and ref_norm else 0.0)
        out.append(math.fsum(sims) / len(sims))
    return out


def _score(corpus: CorpusEval) -> tuple[list[float], float]:
    """BLEU-1..4 and the consensus score, counting each sentence once per order."""
    items = corpus.items
    matched, totals, sims_by_order = [], [], []
    for n in NGRAM_ORDERS:
        hits = total = 0
        doc_freq: Counter = Counter()
        counts = []
        for item in items:
            cand = _ngram_counts(item.candidate, n)
            refs = [_ngram_counts(ref, n) for ref in item.references]
            ceiling: dict = {}
            for ref in refs:
                for gram, cnt in ref.items():
                    if cnt > ceiling.get(gram, 0):
                        ceiling[gram] = cnt
            hits += sum(min(cnt, ceiling.get(gram, 0)) for gram, cnt in cand.items())
            total += sum(cand.values())
            doc_freq.update(ceiling.keys())
            counts.append((cand, refs))
        matched.append(hits)
        totals.append(total)
        sims_by_order.append(_similarities(counts, doc_freq, len(items)))
    c = sum(len(item.candidate) for item in items)
    r = sum(_closest_reference_length(item) for item in items)
    image_scores = [math.fsum(sims) / len(NGRAM_ORDERS) for sims in zip(*sims_by_order)]
    return _bleu(matched, totals, c, r), math.fsum(image_scores) / len(items)


def cider(corpus: CorpusEval) -> float:
    """Mean over images and n-gram orders of the tf-idf cosine to each ref."""
    return _score(corpus)[1]


def evaluate_corpus(corpus: CorpusEval) -> MetricReport:
    """BLEU-1..4 and the consensus score (under the ``cider`` key) in one pass."""
    bleu, consensus = _score(corpus)
    candidate_tokens = sum(len(item.candidate) for item in corpus.items)
    return MetricReport(*bleu, cider=consensus, images=len(corpus.items), candidate_tokens=candidate_tokens)
