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
score is the same float64 sum a scalar loop would form, and ``_top`` applies
the tie rule to every image's candidates at once. A step frees them before
the next ``step_rows``, so it holds at most two [rows,V] arrays.

``beam_block`` decodes a block of images at once, as in the batched decoder
of Show and Tell (Vinyals et al., arXiv 1411.4555): one ``step_rows`` call
per step for every live hypothesis of every image, then one ``_top`` call,
and per image its own finished pool and final ranking. It advances the
image step with ``advance_state``, whose distribution nobody scores, so a
decode runs one head per selection round. ``trainer.decode_images`` runs
every decode through it, at every width. A lone row runs as a 2-row block
(``model.step_rows``), so an image decodes alone as in a block. Its yardstick
is ``tests/oracles.reference_beam_search``; ``beam_search`` and its helpers
are kept only because ``perfbench/`` calls them, until ROADMAP item 1a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, advance_state, check_counts, project_features, step_distribution, step_rows, zero_state
from .vocab import EOS_ID, PAD_ID


@dataclass(frozen=True)
class BeamConfig:
    """Decode settings; ``exclude_ids`` lists ids barred from emission."""

    width: int = 5
    max_len: int = 30
    exclude_ids: tuple[int, ...] = (PAD_ID,)
    length_norm: bool = False

    def __post_init__(self):
        check_counts("beam", self, ("width", "max_len"))
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


def _top(candidates: np.ndarray, image: np.ndarray, width: int, emittable: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each image's top ``width`` candidates, in row-major order.

    ``image`` [L] gives each row's image; an image's rows are contiguous and
    in lexical order of their ids, and ``image`` never decreases.
    ``emittable`` columns of each row are finite and the rest are -inf.
    ``np.partition`` cuts each row at its own ``min(width, emittable)``-th
    largest score and keeps every candidate at or above the cut, ties
    included; an image's top ``width`` all lie there. The kept cells come in
    (row, column) order, the lexical order of their id tuples, as every live
    row has the same length; so one stable sort on (image, -score) puts them
    in tie-rule order, and each image keeps its first ``width``. Row-major
    order is also the lexical order of the survivors' new ids.
    """
    k = candidates.shape[1]
    keep = min(width, emittable)
    cut = np.partition(candidates, k - keep, axis=1)[:, k - keep]
    kept = np.flatnonzero(candidates >= cut[:, None])  # 2-D np.nonzero is several times slower
    owner = image[kept // k]  # already sorted, as ``kept`` and ``image`` are
    order = np.lexsort((-candidates.ravel()[kept], owner))
    chosen = np.zeros(kept.size, dtype=bool)
    chosen[order[np.arange(order.size) - np.searchsorted(owner, owner) < width]] = True
    return np.divmod(kept[chosen], k)


def _ranked(finished: list[tuple[tuple[int, ...], float]], config: BeamConfig) -> list[tuple[list[int], float]]:
    """The best ``config.width`` of one image's finished decodes, as (ids, logprob)."""

    def rank_key(item):
        ids, logprob = item
        return (-(logprob / len(ids) if config.length_norm else logprob), ids)

    finished.sort(key=rank_key)
    return [(list(ids), logprob) for ids, logprob in finished[: config.width]]


def beam_search(feature, start_id: int, params: ModelParams, config: BeamConfig) -> list[tuple[list[int], float]]:
    """``beam_block`` on one image, one hypothesis per ``step_distribution`` call.

    Kept, with ``_root`` and ``Hypothesis``, only because
    ``perfbench/`` calls it; they go with ROADMAP item 1a. No decode runs
    it: ``beam_block`` is the decoder, and its yardstick in the tests is
    ``tests/oracles.reference_beam_search``. Raises ``ValueError`` when a
    live hypothesis has non-finite log-probabilities.
    """
    barred = _barred_ids(params.dims.vocab, config.exclude_ids)
    emittable = params.dims.vocab - barred.size
    live = [_root(feature, start_id, params)]
    finished: list[tuple[tuple[int, ...], float]] = []
    step = 0
    while live:
        step += 1
        # ``live`` is in lexical order of its ids, and so are its top extensions
        candidates = _candidates(np.array([h.logprob for h in live]), np.stack([h.next_logp for h in live]), barred, step)
        parents, tokens = _top(candidates, np.zeros(len(live), dtype=np.int64), config.width, emittable)
        survivors = [(float(candidates[p, c]), live[p], int(c)) for p, c in zip(parents, tokens)]
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
    """Each image's top ``config.width`` decodes as (ids, logprob), best first: a list per row of ``features`` [N,D].

    Each image keeps its top ``width`` candidates per step, and a finished one
    waits in its image's pool for the final ranking. The beam is held as
    arrays over live rows L: ids [L,t], sums [L], state [L,H] and image [L].
    An image's rows are contiguous and in lexical order of their ids, the
    order in which ``_top`` returns them. Each step is one ``step_rows`` call
    for every live row, then one ``_top`` call; a non-finite row raises
    ``ValueError``.
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
        parent, tokens = _top(candidates, image, config.width, emittable)
        scores, image = candidates[parent, tokens], image[parent]
        del candidates, logp  # the next step_rows must not run beside them
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
