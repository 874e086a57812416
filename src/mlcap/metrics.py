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

Both scores come from one integer-array table per call. The tokens are
interned once; an order-n gram code is the order-(n-1) code and the next
token id. Per order, one sort counts the (sentence, gram) pairs, and
``_dense`` gives every (image, gram) row, candidate or reference, a slot:
the reference ceilings come through ``np.maximum.at`` over the reference
rows' slots (a slot no reference holds keeps ceiling 0), and the document
frequencies are a bincount of the grams of the slots whose ceiling is not
0. ``_dense`` makes codes dense as ``np.unique(return_inverse=True)``
does, from one sort of the keys each packed with its position (``np.unique``
takes keys too wide for that). Every packed key is formed in int64, since it
can pass 2**31; the index arrays are held in the narrowest integer dtype that
fits them, and each per-order array is dropped after its last reader, so a
call's traced peak is about 50 bytes per corpus token. A candidate row reads
its ceiling and writes its weight through its own slot, and a reference row
meets the candidate's weight for its gram through the same slot. Each table is
sorted by sentence, so a bincount of its sentences gives the group sizes.
The result is exact, not just close: idf is one ``math.log(m / df)``
per document frequency, the tf-idf products are formed elementwise as single
roundings, and every norm, dot product and per-image mean is the exact group
sum rounded once, as ``math.fsum`` gives it, whatever the order of its terms.
``_group_sums`` computes those sums for all groups at once in arrays and
certifies each one; it calls ``math.fsum`` only for a group it cannot
certify. Nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

NGRAM_ORDERS = (1, 2, 3, 4)
# +0.0 is every exact zero sum of math.fsum on 3.10 and 3.11, as it is of the array sums;
# where the interpreter signs zero sums, math.fsum sums the zero groups
_FSUM_SIGNS_ZERO = math.copysign(1.0, math.fsum([-0.0])) < 0.0


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


def _group_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each group of ``sizes[g]`` consecutive ``values``, bit for bit.

    Ogita, Rump and Oishi's Sum2 over all groups at once: column k adds
    element k of every group that has one to a running sum ``s`` by TwoSum,
    and adds that TwoSum's error to a compensation ``c`` by a second TwoSum,
    whose own error must be zero. Then ``s + c`` is the exact group sum, and
    one addition rounds it as ``math.fsum`` does, ties to even included.
    ``math.fsum`` itself sums a group whose check fails or that holds a
    value of magnitude 2**960 or more, so non-finite values, and every run
    that could overflow, behave exactly as it makes them.
    """
    order = np.argsort(-sizes)  # the groups that reach column k come first
    firsts = (np.cumsum(sizes) - sizes)[order]
    reach = len(sizes) - np.cumsum(np.bincount(sizes))[:-1]  # groups with more than k values
    s, c = np.zeros(len(sizes)), np.zeros(len(sizes))
    exact = np.ones(len(sizes), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, n in enumerate(reach.tolist()):
            x, s_k, c_k = values[firsts[:n] + k], s[:n], c[:n]
            t = s_k + x
            z = t - s_k
            err = (s_k - (t - z)) + (x - z)
            s_k[...] = t
            t = c_k + err
            z = t - c_k
            exact[:n] &= (c_k - (t - z)) + (err - z) == 0.0
            c_k[...] = t
        s += c
    sums, redo = np.empty(len(sizes)), np.empty(len(sizes), dtype=bool)
    sums[order], redo[order] = s, ~exact
    huge = ~(np.abs(values) < 2.0**960)
    if huge.any():
        redo[np.repeat(np.arange(len(sizes)), sizes)[huge]] = True
    if _FSUM_SIGNS_ZERO:
        redo |= sums == 0.0
    if redo.any():
        offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
        for g in np.flatnonzero(redo).tolist():
            sums[g] = math.fsum(values[offsets[g] : offsets[g + 1]].tolist())
    return sums


def _index_dtype(bound: int) -> type:
    """The narrowest signed integer dtype that holds every value in 0..bound."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Where each run of equal keys in ``sorted_keys`` begins."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _dense(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for non-negative int64 keys, which it may overwrite.

    Each key is shifted left by ``len(keys).bit_length()`` bits and OR-ed
    with its position, so one plain sort orders the keys and carries each
    one's position along, where ``np.unique`` runs an argsort. Keys that
    leave no room for the position bits go to ``np.unique``.
    """
    shift = len(keys).bit_length()
    if not len(keys) or keys.max() >> (63 - shift):
        return np.unique(keys, return_inverse=True)
    keys <<= shift
    keys |= np.arange(len(keys))
    keys.sort()
    positions = keys & ((1 << shift) - 1)
    keys >>= shift
    first = _run_starts(keys)
    uniques = keys[first]
    ranks = keys  # the sorted keys are no longer needed
    ranks[...] = first
    np.cumsum(ranks, out=ranks)
    ranks -= 1
    inverse = np.empty(len(keys), dtype=_index_dtype(len(uniques)))
    inverse[positions] = ranks
    return uniques, inverse


def _pairs(sents: np.ndarray, codes: np.ndarray, n_codes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per distinct (sentence, gram) of the given n-grams, sorted by
    sentence: its sentence, its gram code and its count."""
    keys = np.multiply(sents, n_codes, dtype=np.int64)
    keys += codes
    keys.sort()
    at = np.flatnonzero(_run_starts(keys))
    counts = np.diff(at, append=len(keys))
    counts = counts.astype(_index_dtype(int(counts.max(initial=0))))
    keys = keys[at]
    return (keys // n_codes).astype(sents.dtype), (keys % n_codes).astype(codes.dtype), counts


def _score(corpus: CorpusEval) -> tuple[list[float], float, int]:
    """BLEU-1..4, the consensus score and the candidate token count, from one n-gram table per order."""
    items = corpus.items
    m = len(items)
    # sentences run image by image: the candidate, then its references
    sentences = [s for item in items for s in (item.candidate, *item.references)]
    n_sents = len(sentences)
    n_refs = np.array([len(item.references) for item in items], dtype=np.int64)
    cand_sent = np.concatenate(([0], np.cumsum(n_refs + 1)[:-1]))
    image_of = np.repeat(np.arange(m, dtype=_index_dtype(m)), n_refs + 1)
    is_ref = np.ones(n_sents, dtype=bool)
    is_ref[cand_sent] = False
    ref_sents = np.flatnonzero(is_ref)
    cand_of_ref = cand_sent[image_of[ref_sents]]
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=n_sents)
    n_tokens = int(lengths.sum())
    ids = {t: i for i, t in enumerate(dict.fromkeys(chain.from_iterable(sentences)))}
    vocab = len(ids)
    tokens = np.fromiter(map(ids.__getitem__, chain.from_iterable(sentences)), dtype=_index_dtype(vocab), count=n_tokens)
    del ids
    sent_of = np.repeat(np.arange(n_sents, dtype=_index_dtype(n_sents)), lengths)
    # how many tokens of its sentence each position starts: an n-gram fits where it is at least n
    left = (np.repeat(np.cumsum(lengths), lengths) - np.arange(n_tokens)).astype(_index_dtype(int(lengths.max(initial=0))))
    starts, codes, n_codes = np.arange(n_tokens, dtype=_index_dtype(n_tokens)), tokens, vocab
    matched, totals, sims_by_order = [], [], []
    for n in NGRAM_ORDERS:
        if n > 1:  # an n-gram is the code of its first n-1 tokens and its last token
            keep = left[starts] >= n
            starts = starts[keep]
            keys = np.multiply(codes[keep], vocab, dtype=np.int64)
            keys += tokens[starts + (n - 1)]
            del keep
            grams, codes = _dense(keys)
            n_codes = len(grams)
            del keys, grams
        sent, gram, counts = _pairs(sent_of[starts], codes, n_codes)
        ref = is_ref[sent]
        keys = np.multiply(image_of[sent], n_codes, dtype=np.int64)
        keys += gram
        # one slot per (image, gram) whose ceiling is the gram's largest count in one of the
        # image's references, 0 where no reference holds it
        groups, slot = _dense(keys)
        cand_slot, ref_slot = slot[~ref], slot[ref]
        del keys, slot
        ceilings = np.zeros(len(groups), dtype=counts.dtype)
        np.maximum.at(ceilings, ref_slot, counts[ref])
        cand_counts = counts[~ref]
        matched.append(int(np.minimum(cand_counts, ceilings[cand_slot]).sum()))
        totals.append(int(cand_counts.sum()))
        del cand_counts
        # images whose references hold the gram; a candidate gram in none counts as in one
        doc_freq = np.maximum(np.bincount(groups[ceilings != 0] % n_codes, minlength=n_codes), 1)
        n_groups = len(groups)
        del groups, ceilings
        idf = np.array([0.0] + [math.log(m / df) for df in range(1, int(doc_freq.max(initial=1)) + 1)])
        weights = counts * idf[doc_freq[gram]]
        del counts, doc_freq, gram
        # the table is sorted by sentence, so a bincount of its sentences gives the group sizes
        norms = np.sqrt(_group_sums(weights * weights, np.bincount(sent, minlength=n_sents)))
        # each reference row meets its image's candidate weight for the gram through their slot
        in_cand = np.zeros(n_groups, dtype=bool)
        in_cand[cand_slot] = True
        cand_weights = np.zeros(n_groups)
        cand_weights[cand_slot] = weights[~ref]
        del cand_slot
        shared = in_cand[ref_slot]
        del in_cand
        products = cand_weights[ref_slot[shared]] * weights[ref][shared]
        del cand_weights, ref_slot, weights
        dots = _group_sums(products, np.bincount(sent[ref][shared], minlength=n_sents)[ref_sents])
        del products, sent, ref, shared
        cand_norms, ref_norms = norms[cand_of_ref], norms[ref_sents]
        both = (cand_norms != 0.0) & (ref_norms != 0.0)
        sims = np.zeros(len(ref_sents))
        sims[both] = dots[both] / (cand_norms[both] * ref_norms[both])
        sims_by_order.append(_group_sums(sims, n_refs) / n_refs)
    orders = len(NGRAM_ORDERS)
    image_scores = _group_sums(np.stack(sims_by_order, axis=1).ravel(), np.full(m, orders)) / orders
    # each image's closest reference length, shorter on ties: the least (distance, length)
    # pair, packed as distance * (longest + 1) + length
    ref_lengths, span = lengths[ref_sents], int(lengths.max()) + 1
    keys = np.abs(ref_lengths - lengths[cand_of_ref]) * span + ref_lengths
    r = int((np.minimum.reduceat(keys, np.concatenate(([0], np.cumsum(n_refs)[:-1]))) % span).sum())
    c = int(lengths[cand_sent].sum())
    return _bleu(matched, totals, c, r), math.fsum(image_scores.tolist()) / m, c


def cider(corpus: CorpusEval) -> float:
    """Mean over images and n-gram orders of the tf-idf cosine to each ref."""
    return _score(corpus)[1]


def evaluate_corpus(corpus: CorpusEval) -> MetricReport:
    """BLEU-1..4 and the consensus score (under the ``cider`` key) in one pass."""
    bleu, consensus, candidate_tokens = _score(corpus)
    return MetricReport(*bleu, cider=consensus, images=len(corpus.items), candidate_tokens=candidate_tokens)
