"""Beam-search decoding.

A hypothesis scores the sum of per-token log-probabilities of everything it
has emitted. The emitted length is capped at ``max_len`` counting every
token including a terminal eos; a hypothesis also finishes the moment it
emits eos. Padding and language-start ids are never emitted (unk and eos
are). Ties are broken everywhere by the same rule: higher logprob first,
then lexicographically smaller id tuple, which also puts a finished prefix
ahead of its extensions. Scores are never length-normalized unless the
optional ranking flag asks for it.

Selection is vectorized but exact. Each step stacks the live hypotheses'
next-token log-probabilities into one [L, K] array over the K emittable
ids and adds each parent's score, so every candidate score is the same
float64 sum a scalar loop would form. ``_top`` holds the tie rule, for the
candidates of one image: ``np.partition`` finds the ``width``-th largest
score; every candidate scoring at least that cut is kept, so exact ties at
the boundary all survive, and the kept candidates are ordered by (-score,
parent's lexical rank, token id). All live hypotheses have the same length
at a given step, so that order is the order of the full id tuples, and the
first ``width`` are exactly the candidates the tie rule selects.

``beam_block`` decodes a block of images at once, as in the batched decoder
of Show and Tell (Vinyals et al., arXiv 1411.4555): one ``step_rows`` call
per step for every live hypothesis of every image, then ``_top`` per image,
and per image its own finished pool and final ranking. ``greedy_block`` is
the width-1 search for a block, with the same rule applied to each row on
its own. Both advance the image step with ``advance_state``, whose
distribution nobody scores, so a decode runs one head per selection round.
``trainer.decode_images`` runs every decode through one of the two.
``model.step_rows`` runs a lone row as a 2-row block, so a block row,
a lone image and ``beam_search`` (one hypothesis per ``step_distribution``
call, kept as the scalar reference) give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LstmState, ModelParams, advance_state, project_features, step_distribution, step_rows, zero_state
from .vocab import EOS_ID, PAD_ID


@dataclass(frozen=True)
class BeamConfig:
    """Decode settings; ``exclude_ids`` lists ids barred from emission."""

    width: int = 5
    max_len: int = 30
    exclude_ids: tuple[int, ...] = (PAD_ID,)
    length_norm: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"beam width must be >= 1, got {self.width}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if EOS_ID in self.exclude_ids:
            raise ValueError("the eos id cannot be excluded from emission")


@dataclass
class Hypothesis:
    """A live decode: emitted ids, their total logprob, and model state.

    ``state`` is the decoder state after consuming the feature, the start
    token, and every emitted id; ``next_logp`` caches the distribution over
    the next id.
    """

    ids: tuple[int, ...]
    logprob: float
    state: LstmState
    next_logp: np.ndarray


def _emittable_ids(vocab_size: int, exclude_ids) -> np.ndarray:
    """The ids of ``range(vocab_size)`` that ``exclude_ids`` leaves; exclusions outside it are moot."""
    allowed = np.ones(vocab_size, dtype=bool)
    allowed[[i for i in map(int, exclude_ids) if 0 <= i < vocab_size]] = False
    ids = np.flatnonzero(allowed)
    if not ids.size:
        raise ValueError("every token id is excluded from emission")
    return ids


def _root(feature, start_id: int, params: ModelParams) -> Hypothesis:
    state, _ = step_distribution(zero_state(params), np.asarray(feature, dtype=np.float64), params)
    state, logp = step_distribution(state, int(start_id), params)
    return Hypothesis(ids=(), logprob=0.0, state=state, next_logp=logp)


def _candidates(scores: np.ndarray, logp: np.ndarray, emittable: np.ndarray, step: int) -> np.ndarray:
    """Candidate scores [L,K]: each live row's sum plus each emittable id's log-probability."""
    candidates = scores[:, None] + logp[:, emittable]
    if not np.isfinite(candidates).all():
        raise ValueError(f"non-finite log-probabilities at decode step {step}")
    return candidates


def _top(candidates: np.ndarray, rank: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent row, emittable column) of the top ``width`` candidates of one image.

    ``rank`` is each parent row's lexical rank among its image's rows. The
    tie rule lives here alone: higher score first, then the parent's rank,
    then the token id (emittable ids ascend, so the column orders them).
    """
    flat = candidates.ravel()
    k = min(width, flat.size)
    cut = np.partition(flat, flat.size - k)[flat.size - k]
    kept = np.flatnonzero(flat >= cut)
    parent, column = np.divmod(kept, candidates.shape[1])
    order = np.lexsort((column, rank[parent], -flat[kept]))[:width]
    return parent[order], column[order]


def _select(live: list[Hypothesis], emittable: np.ndarray, width: int, step: int):
    """The top ``width`` (logprob, parent, token) extensions of ``live``."""
    scores = np.array([h.logprob for h in live])
    candidates = _candidates(scores, np.stack([h.next_logp for h in live]), emittable, step)
    rank = np.empty(len(live), dtype=np.int64)
    rank[sorted(range(len(live)), key=lambda i: live[i].ids)] = np.arange(len(live))
    parent, column = _top(candidates, rank, width)
    return [(float(candidates[p, c]), live[p], int(emittable[c])) for p, c in zip(parent, column)]


def _ranked(finished: list[tuple[tuple[int, ...], float]], config: BeamConfig) -> list[tuple[list[int], float]]:
    """The best ``config.width`` of one image's finished decodes, as (ids, logprob)."""

    def rank_key(item):
        ids, logprob = item
        return (-(logprob / len(ids) if config.length_norm else logprob), ids)

    finished.sort(key=rank_key)
    return [(list(ids), logprob) for ids, logprob in finished[: config.width]]


def beam_search(feature, start_id: int, params: ModelParams, config: BeamConfig) -> list[tuple[list[int], float]]:
    """Top ``config.width`` decodes as (ids, logprob), best first.

    Every live hypothesis is scored against the full vocabulary each step;
    the global top ``width`` candidates survive. Hypotheses that emit eos or
    reach ``max_len`` emitted tokens move to the finished pool, which only
    competes at the final ranking. Raises ``ValueError`` when a live
    hypothesis has non-finite log-probabilities.
    """
    emittable = _emittable_ids(params.dims.vocab, config.exclude_ids)
    live = [_root(feature, start_id, params)]
    finished: list[tuple[tuple[int, ...], float]] = []
    step = 0
    while live:
        step += 1
        survivors = _select(live, emittable, config.width, step)
        live = []
        for logprob, hyp, tok in survivors:
            ids = hyp.ids + (tok,)
            if tok == EOS_ID or len(ids) >= config.max_len:
                finished.append((ids, logprob))
            else:
                state, logp = step_distribution(hyp.state, tok, params)
                live.append(Hypothesis(ids, logprob, state, logp))
    return _ranked(finished, config)


def beam_block(features, start_id: int, params: ModelParams, config: BeamConfig) -> list[list[tuple[list[int], float]]]:
    """``beam_search`` for every row of ``features`` [N,D]: one result list per image.

    The beam of the whole block is held as arrays over its live rows L:
    emitted ids [L,t], sums [L], state [L,H] and each row's image. Rows of an
    image are contiguous and in lexical order of their ids, so a row's rank
    is its offset within the image. Each step is one ``step_rows`` call for
    every live row of every image, then ``_top`` per image. Raises
    ``ValueError`` when a live row has non-finite log-probabilities.
    """
    features = np.asarray(features, dtype=np.float64)
    if not 0 <= start_id < params.dims.vocab:
        raise IndexError(f"beam_block: start id {start_id} out of range")
    emittable = _emittable_ids(params.dims.vocab, config.exclude_ids)
    n = features.shape[0]
    if not n:
        return []
    state = advance_state(project_features(features, params), zero_state(params, n), params)
    state, logp = step_rows(params.w_embed[np.full(n, start_id)], state, params)
    image = np.arange(n)
    ids = np.zeros((n, 0), dtype=np.int64)
    scores = np.zeros(n)
    finished: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in range(n)]
    for step in range(1, config.max_len + 1):
        candidates = _candidates(scores, logp, emittable, step)
        edges = np.searchsorted(image, np.arange(n + 1)).tolist()  # image k owns rows edges[k]:edges[k+1]
        parents, columns = [], []
        for lo, hi in zip(edges, edges[1:]):
            if lo == hi:
                continue
            parent, column = _top(candidates[lo:hi], np.arange(hi - lo), config.width)
            order = np.lexsort((column, parent))  # survivors in lexical order of their ids
            parents.append(lo + parent[order])
            columns.append(column[order])
        parent, column = np.concatenate(parents), np.concatenate(columns)
        scores, image = candidates[parent, column], image[parent]
        tokens = emittable[column]
        ids = np.concatenate([ids[parent], tokens[:, None]], axis=1)
        ended = (tokens == EOS_ID) | (step == config.max_len)
        for row in np.flatnonzero(ended):
            finished[image[row]].append((tuple(ids[row].tolist()), float(scores[row])))
        live = ~ended
        if not live.any():
            break
        image, ids, scores, rows = image[live], ids[live], scores[live], parent[live]
        state, logp = step_rows(params.w_embed[tokens[live]], LstmState(state.h[rows], state.c[rows]), params)
    return [_ranked(pool, config) for pool in finished]


def greedy_block(features, start_id: int, params: ModelParams, config: BeamConfig) -> list[list[int]]:
    """Width-1 decodes of every row of ``features`` [N,D], as id lists.

    Each row keeps ``_select``'s rule: its candidates score the row's sum
    so far plus each emittable id's log-probability, the highest wins, and
    ties go to the lowest id. A row ends at eos or at ``max_len`` emitted
    ids; ended rows keep stepping with the block until every row has ended.
    Raises ``ValueError`` when a live row has non-finite log-probabilities.
    """
    features = np.asarray(features, dtype=np.float64)
    if not 0 <= start_id < params.dims.vocab:
        raise IndexError(f"greedy_block: start id {start_id} out of range")
    emittable = _emittable_ids(params.dims.vocab, config.exclude_ids)
    rows = np.arange(features.shape[0])
    state = advance_state(project_features(features, params), zero_state(params, rows.size), params)
    state, logp = step_rows(params.w_embed[np.full(rows.size, start_id)], state, params)
    scores = np.zeros(rows.size)
    columns = []  # one [N] array of emitted ids per step taken, so memory follows the longest decode
    lengths = np.full(rows.size, config.max_len)
    live = np.ones(rows.size, dtype=bool)
    for step in range(1, config.max_len + 1):
        candidates = scores[:, None] + logp[:, emittable]
        if not np.isfinite(candidates[live]).all():
            raise ValueError(f"non-finite log-probabilities at decode step {step}")
        best = candidates.argmax(axis=1)  # the first maximum: emittable ids ascend
        scores = candidates[rows, best]
        tokens = emittable[best]
        columns.append(tokens)
        lengths[live & (tokens == EOS_ID)] = step
        live &= tokens != EOS_ID
        if not live.any() or step == config.max_len:
            break
        state, logp = step_rows(params.w_embed[tokens], state, params)
    return [row[:n].tolist() for row, n in zip(np.stack(columns, axis=1), lengths)]
