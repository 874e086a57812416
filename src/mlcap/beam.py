"""Beam-search decoding.

A hypothesis scores the sum of per-token log-probabilities of everything it
has emitted. The emitted length is capped at ``max_len`` counting every
token including a terminal eos; a hypothesis also finishes the moment it
emits eos. Padding and language-start ids are never emitted (unk and eos
are). Ties are broken everywhere by the same rule: higher logprob first,
then lexicographically smaller id tuple, which also puts a finished prefix
ahead of its extensions. Scores are never length-normalized unless the
optional ranking flag asks for it. Width 1 is greedy decoding.

Selection is vectorized but exact. Each step adds each live hypothesis's
score to its next-token log-probabilities, in place, so every candidate
score is the same float64 sum a scalar loop would form. The [L, V] result
keeps a column per token id, with the barred ids' columns set to -inf
rather than the emittable columns gathered out. ``_top`` holds the tie rule and
selects every image's survivors at once: ``np.partition`` cuts each row at
its own ``width``-th largest score, every candidate scoring at least its
row's cut is kept, so exact ties at the boundary all survive, and one
``lexsort`` orders the kept candidates by (image, -score, parent's lexical
rank, token id). An image's top ``width`` candidates all lie at or above
their own rows' cuts. All live hypotheses have the same length at a given
step, so that order is the order of the full id tuples, and each image's
first ``width`` are exactly the candidates the tie rule selects.

``beam_block`` decodes a block of images at once, as in the batched decoder
of Show and Tell (Vinyals et al., arXiv 1411.4555): one ``step_rows`` call
per step for every live hypothesis of every image, then one ``_top`` call,
and per image its own finished pool and final ranking. It advances the
image step with ``advance_state``, whose distribution nobody scores, so a
decode runs one head per selection round. ``trainer.decode_images`` runs
every decode through it, at every width. ``model.step_rows`` runs a lone
row as a 2-row block, so a block row, a lone image and ``beam_search``
(one hypothesis per ``step_distribution`` call, kept as the scalar
reference) give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, advance_state, project_features, step_distribution, step_rows, zero_state
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

    ``state`` is the decoder's ``(h, c)`` after consuming the feature, the start
    token, and every emitted id; ``next_logp`` caches the distribution over
    the next id.
    """

    ids: tuple[int, ...]
    logprob: float
    state: tuple[np.ndarray, np.ndarray]
    next_logp: np.ndarray


def _barred_ids(vocab_size: int, exclude_ids) -> np.ndarray:
    """The ids of ``range(vocab_size)`` in ``exclude_ids``, ascending; exclusions outside it are moot."""
    allowed = np.ones(vocab_size, dtype=bool)
    allowed[[i for i in map(int, exclude_ids) if 0 <= i < vocab_size]] = False
    if not allowed.any():
        raise ValueError("every token id is excluded from emission")
    return np.flatnonzero(~allowed)


def _root(feature, start_id: int, params: ModelParams) -> Hypothesis:
    state, _ = step_distribution(zero_state(params), np.asarray(feature, dtype=np.float64), params)
    state, logp = step_distribution(state, int(start_id), params)
    return Hypothesis(ids=(), logprob=0.0, state=state, next_logp=logp)


def _candidates(scores: np.ndarray, logp: np.ndarray, barred: np.ndarray, step: int) -> np.ndarray:
    """Candidate scores [L,V], written over ``logp``: each live row's sum plus each id's log-probability.

    The ``barred`` ids' columns become -inf, so every column stays a token
    id; only the other columns must be finite.
    """
    logp += scores[:, None]
    logp[:, barred] = 0.0
    if not np.isfinite(logp).all():
        raise ValueError(f"non-finite log-probabilities at decode step {step}")
    logp[:, barred] = -np.inf
    return logp


def _top(
    candidates: np.ndarray, image: np.ndarray, rank: np.ndarray, width: int, emittable: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each image's top ``width`` candidates, image by image, best first.

    ``image`` [L] gives each row's image; an image's rows are contiguous and
    ``image`` never decreases. ``rank`` orders an image's rows lexically.
    ``emittable`` columns of each row are finite and the rest are -inf, so
    a row keeps at most that many. The tie rule lives here alone: higher
    score first, then the parent's rank, then the token id (the column).
    """
    k = candidates.shape[1]
    keep = min(width, emittable)
    cut = np.partition(candidates, k - keep, axis=1)[:, k - keep]
    kept = np.flatnonzero(candidates >= cut[:, None])  # 2-D np.nonzero is several times slower
    row, column = np.divmod(kept, k)
    order = np.lexsort((column, rank[row], -candidates.ravel()[kept], image[row]))
    row, column, owner = row[order], column[order], image[row[order]]
    first = np.arange(owner.size) - np.searchsorted(owner, owner) < width
    return row[first], column[first]


def _select(live: list[Hypothesis], barred: np.ndarray, width: int, step: int):
    """The top ``width`` (logprob, parent, token) extensions of ``live``; ``barred`` ids are never emitted."""
    scores = np.array([h.logprob for h in live])
    candidates = _candidates(scores, np.stack([h.next_logp for h in live]), barred, step)
    rank = np.empty(len(live), dtype=np.int64)
    rank[sorted(range(len(live)), key=lambda i: live[i].ids)] = np.arange(len(live))
    parent, column = _top(candidates, np.zeros(len(live), dtype=np.int64), rank, width, candidates.shape[1] - barred.size)
    return [(float(candidates[p, c]), live[p], int(c)) for p, c in zip(parent, column)]


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
    barred = _barred_ids(params.dims.vocab, config.exclude_ids)
    live = [_root(feature, start_id, params)]
    finished: list[tuple[tuple[int, ...], float]] = []
    step = 0
    while live:
        step += 1
        survivors = _select(live, barred, config.width, step)
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
    image are contiguous and in lexical order of their ids, so the row index
    serves as each row's rank. Each step is one ``step_rows`` call for
    every live row of every image, then one ``_top`` call. Raises
    ``ValueError`` when a live row has non-finite log-probabilities.
    """
    features = np.asarray(features, dtype=np.float64)
    if not 0 <= start_id < params.dims.vocab:
        raise IndexError(f"beam_block: start id {start_id} out of range")
    barred = _barred_ids(params.dims.vocab, config.exclude_ids)
    emittable = params.dims.vocab - barred.size
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
        candidates = _candidates(scores, logp, barred, step)
        parent, tokens = _top(candidates, image, np.arange(len(image)), config.width, emittable)
        order = np.lexsort((tokens, parent))  # survivors in lexical order of their ids
        parent, tokens = parent[order], tokens[order]
        scores, image = candidates[parent, tokens], image[parent]
        ids = np.concatenate([ids[parent], tokens[:, None]], axis=1)
        ended = (tokens == EOS_ID) | (step == config.max_len)
        for row in np.flatnonzero(ended):
            finished[image[row]].append((tuple(ids[row].tolist()), float(scores[row])))
        live = ~ended
        if not live.any():
            break
        image, ids, scores, rows = image[live], ids[live], scores[live], parent[live]
        state, logp = step_rows(params.w_embed[tokens[live]], (state[0][rows], state[1][rows]), params)
    return [_ranked(pool, config) for pool in finished]
