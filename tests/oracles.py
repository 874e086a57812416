"""Brute-force metric, scoring, optimizer and decoder re-implementations used
only as test oracles.

Written independently of the library code, favoring obviousness over speed:
explicit loops, plain dicts, no shared helpers. ``forward_sequence`` restates
the decoder in plain numpy; the decoders share only the model's
``project_features``, ``advance_state`` and ``step_rows`` with the library,
since that is what they search over, and step one hypothesis per call.
``reference_score`` differs in purpose: it is the per-sentence ``Counter``
form of the metric table, with the same rounding, so it checks exactness;
``textbook_adam_step`` likewise rounds once per textbook operation, and
``where_sigmoid``, ``gates_list_lstm_sequence``, ``full_partial_head``,
``per_image_top`` and ``log_softmax`` (the decoder's normalisation, which
``step_rows`` does in place) are the earlier forms of library code that
must keep their bits. ``step_products_lstm_sequence`` is the recurrence's
earlier arithmetic, which the library's gradients must stay close to;
``separate_coefficients_lstm_sequence`` and ``stored_cells_lstm_sequence``
are layouts its memory bounds rule out.
If the library and these disagree, trust neither and recount by hand.
"""

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from mlcap import autodiff as ad, model, trainer
from mlcap.metrics import MetricReport
from mlcap.model import advance_state, project_features, step_rows, zero_state
from mlcap.trainer import Batch
from mlcap.vocab import EOS_ID, PAD_ID

EXHAUSTIVE_LIMIT = 1_000_000


def grams(tokens, n):
    out = []
    for i in range(len(tokens) - n + 1):
        out.append(tuple(tokens[i : i + n]))
    return out


def count(seq):
    table = {}
    for item in seq:
        table[item] = table.get(item, 0) + 1
    return table


def naive_bleu(items, n):
    """items: list of (candidate, [reference, ...]) token-list pairs."""
    cand_total_len = 0
    ref_total_len = 0
    for candidate, references in items:
        cand_total_len += len(candidate)
        best = None
        for ref in references:
            key = (abs(len(ref) - len(candidate)), len(ref))
            if best is None or key < best:
                best = key
        ref_total_len += best[1]
    if cand_total_len == 0:
        return 0.0
    precisions = []
    for k in range(1, n + 1):
        matched = 0
        total = 0
        for candidate, references in items:
            cand_counts = count(grams(candidate, k))
            for gram, c in cand_counts.items():
                best_ref = 0
                for ref in references:
                    ref_count = count(grams(ref, k)).get(gram, 0)
                    if ref_count > best_ref:
                        best_ref = ref_count
                matched += min(c, best_ref)
            total += len(grams(candidate, k))
        if matched == 0 or total == 0:
            return 0.0
        precisions.append(matched / total)
    geo = math.exp(sum(math.log(p) for p in precisions) / n)
    if cand_total_len >= ref_total_len:
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - ref_total_len / cand_total_len)
    return brevity * geo


def naive_cider(items):
    """Plain consensus score: tf-idf cosine averaged over refs, n, images."""
    m_images = len(items)
    image_scores = []
    for candidate, references in items:
        n_scores = []
        for n in range(1, 5):
            cand_vec = {}
            for gram, c in count(grams(candidate, n)).items():
                cand_vec[gram] = c * _idf(gram, n, items, m_images)
            ref_sims = []
            for ref in references:
                ref_vec = {}
                for gram, c in count(grams(ref, n)).items():
                    ref_vec[gram] = c * _idf(gram, n, items, m_images)
                ref_sims.append(_cosine(cand_vec, ref_vec))
            n_scores.append(sum(ref_sims) / len(ref_sims))
        image_scores.append(sum(n_scores) / 4.0)
    return sum(image_scores) / m_images


def _idf(gram, n, items, m_images):
    appearances = 0
    for _, references in items:
        for ref in references:
            if gram in grams(ref, n):
                appearances += 1
                break
    return math.log(m_images / max(1, appearances))


def _cosine(u, v):
    nu = math.sqrt(sum(x * x for x in u.values()))
    nv = math.sqrt(sum(x * x for x in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = 0.0
    for gram, x in u.items():
        if gram in v:
            dot += x * v[gram]
    return dot / (nu * nv)


def group_fsums(values, sizes):
    """``math.fsum`` of each group of ``sizes[g]`` consecutive ``values``, one call per group."""
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
    values = np.asarray(values, dtype=np.float64).tolist()
    return [math.fsum(values[a:b]) for a, b in zip(offsets, offsets[1:])]


def row_loop_batch(examples):
    """``make_batch`` one example row at a time."""
    longest = max(len(ex.target_ids) for ex in examples)
    features = np.stack([ex.feature for ex in examples], dtype=np.float64)
    start_ids = np.array([ex.start_id for ex in examples], dtype=np.int64)
    targets = np.full((len(examples), longest), PAD_ID, dtype=np.int64)
    for row, ex in enumerate(examples):
        targets[row, : len(ex.target_ids)] = ex.target_ids
    return Batch(features, start_ids, targets)


def batch_loop_epoch(examples, params, adam, config, rng):
    """``train_epoch`` restated: the same shuffle, then per batch ``row_loop_batch``
    -> ``sequence_loss`` -> ``textbook_adam_step``, written back into ``params``."""
    order = rng.permutation(len(examples))
    nll_sum = 0.0
    token_sum = 0
    for lo in range(0, len(order), config.batch_size):
        chosen = [examples[i] for i in order[lo : lo + config.batch_size]]
        batch = row_loop_batch(chosen)
        loss, grads = trainer.sequence_loss(batch, params, config.loss_mode)
        if config.clip:
            trainer.clip_gradients(grads)
        adam.t += 1
        arrays = dict(params.named_parameters())
        textbook_adam_step(arrays, grads, adam.m, adam.v, adam.t)
        for name, array in arrays.items():
            setattr(params, name, array)
        n = sum(len(ex.target_ids) for ex in chosen)
        nll_sum += loss * (n if config.loss_mode == "mean" else 1.0)
        token_sum += n
    return nll_sum / token_sum


def reference_score(corpus):
    """``evaluate_corpus``'s report from per-sentence ``Counter`` tables.

    The dict-based counting that the array table in ``mlcap.metrics``
    replaced, kept as its exactness oracle: the same products, each group
    summed with ``math.fsum``, so the library must match it bit for bit.
    """
    items = corpus.items
    m = len(items)
    matched, totals, sims_by_order = [], [], []
    for n in range(1, 5):
        hits = total = 0
        doc_freq = Counter()
        counts = []
        for item in items:
            cand = Counter(tuple(item.candidate[i : i + n]) for i in range(len(item.candidate) - n + 1))
            refs = [Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)) for ref in item.references]
            ceiling = {}
            for ref in refs:
                for gram, cnt in ref.items():
                    ceiling[gram] = max(cnt, ceiling.get(gram, 0))
            hits += sum(min(cnt, ceiling.get(gram, 0)) for gram, cnt in cand.items())
            total += sum(cand.values())
            doc_freq.update(ceiling.keys())
            counts.append((cand, refs))
        matched.append(hits)
        totals.append(total)
        idf = {gram: math.log(m / df) for gram, df in doc_freq.items()}
        sims = []
        for cand, refs in counts:
            cand_vec = {gram: cnt * idf.get(gram, math.log(m)) for gram, cnt in cand.items()}
            cand_norm = math.sqrt(math.fsum([x * x for x in cand_vec.values()]))
            per_ref = []
            for ref in refs:
                ref_vec = {gram: cnt * idf[gram] for gram, cnt in ref.items()}
                ref_norm = math.sqrt(math.fsum([x * x for x in ref_vec.values()]))
                dot = math.fsum([x * ref_vec[gram] for gram, x in cand_vec.items() if gram in ref_vec])
                per_ref.append(dot / (cand_norm * ref_norm) if cand_norm and ref_norm else 0.0)
            sims.append(math.fsum(per_ref) / len(per_ref))
        sims_by_order.append(sims)
    c = sum(len(item.candidate) for item in items)
    r = sum(
        min((len(ref) for ref in item.references), key=lambda L: (abs(L - len(item.candidate)), L))
        for item in items
    )
    bleu = [0.0] * 4
    if c:
        brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
        log_precision_sum = 0.0
        for k in range(4):
            if matched[k] == 0:
                break
            log_precision_sum += math.log(matched[k] / totals[k])
            bleu[k] = brevity * math.exp(log_precision_sum / (k + 1))
    image_scores = [math.fsum(sims) / 4 for sims in zip(*sims_by_order)]
    return MetricReport(*bleu, cider=math.fsum(image_scores) / m, images=m, candidate_tokens=c)


def random_corpus(rng, n_images=None,vocab=("the", "cat", "sat", "on", "mat", "dog", "ran")):
    """A random evaluation corpus as (candidate, references) pairs."""
    if n_images is None:
        n_images = int(rng.integers(1, 6))
    items = []
    for _ in range(n_images):
        cand_len = int(rng.integers(0, 8))
        candidate = [vocab[int(i)] for i in rng.integers(0, len(vocab), cand_len)]
        refs = []
        for _ in range(int(rng.integers(1, 4))):
            ref_len = int(rng.integers(1, 8))
            refs.append([vocab[int(i)] for i in rng.integers(0, len(vocab), ref_len)])
        items.append((candidate, refs))
    return items


# ---------------------------------------------------------------------------
# teacher-forced scoring


class ForwardTrace(NamedTuple):
    """Teacher-forced pass record: one probability row per scored target."""

    distributions: list
    final_state: tuple  # (h, c)
    ids: tuple
    start_id: int


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def lstm_step(x, h, c, params):
    """One recurrence step on rows, restated in numpy: gates [i, f, o, g]."""
    n = params.dims.hidden
    z = x @ params.w_x + h @ params.w_h + params.b_gates
    i, f, o = _sigmoid(z[:, :n]), _sigmoid(z[:, n : 2 * n]), _sigmoid(z[:, 2 * n : 3 * n])
    c = f * c + i * np.tanh(z[:, 3 * n :])
    return o * np.tanh(c), c


def forward_sequence(feature, ids, start_id, params):
    """Score a caption against a feature, restated step by step in numpy.

    Inputs are the projected feature, the start id, then all caption ids
    but the last; the t-th recorded distribution predicts ids[t].
    """
    if not ids:
        raise ValueError("forward_sequence: sequence must contain at least the eos id")
    if not 0 <= start_id < params.dims.vocab:
        raise IndexError(f"forward_sequence: start id {start_id} out of range")
    h = c = np.zeros((1, params.dims.hidden))
    image = np.asarray(feature, dtype=np.float64)[None, :] @ params.w_image + params.b_image
    h, c = lstm_step(image, h, c, params)
    distributions = []
    for tok in (start_id,) + tuple(ids[:-1]):
        h, c = lstm_step(params.w_embed[[tok]], h, c, params)
        logits = (h @ params.w_out + params.b_out)[0]
        e = np.exp(logits - logits.max())
        distributions.append(e / e.sum())
    return ForwardTrace(distributions, (h, c), tuple(ids), start_id)


# ---------------------------------------------------------------------------
# training step


def where_sigmoid(x):
    """The stable sigmoid as two branches picked by ``np.where``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _gates_forward(x, batch, w_x, w_h, b_gates):
    """The teacher-forced forward run, keeping each step's gates and ``tanh(c)`` as arrays of
    their own: ``(zx, hs, cs, acts)`` with ``zx`` the input projections and ``acts[s]`` the
    pair of step ``s``."""
    hidden = w_h.shape[0]
    steps = x.shape[0] // batch
    zx = x @ w_x
    hs = np.empty((steps * batch, hidden))
    cs = np.empty((steps * batch, hidden))
    acts = []
    h = c = np.zeros((batch, hidden))
    for s in range(steps):
        rows = slice(s * batch, (s + 1) * batch)
        z = zx[rows] + h @ w_h if s else zx[rows].copy()
        z += b_gates
        gates = np.empty_like(z)
        gates[:, : 3 * hidden] = where_sigmoid(z[:, : 3 * hidden])
        gates[:, 3 * hidden :] = np.tanh(z[:, 3 * hidden :])
        i, f, o, g = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        hs[rows], cs[rows] = h, c
        acts.append((gates, tanh_c))
    return zx, hs, cs, acts


def gates_list_lstm_sequence(x, batch, w_x, w_h, b_gates):
    """``lstm_sequence`` keeping each step's gates and ``tanh(c)`` as arrays of their own.

    The pullback forms each step's coefficients from them as it reaches
    the step, in the library's arithmetic, and writes the gate gradients
    over the input projections.
    """
    hidden = w_h.shape[0]
    steps = x.shape[0] // batch
    zx, hs, cs, acts = _gates_forward(x, batch, w_x, w_h, b_gates)

    def pullback(g, x):
        dz = zx
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for s in range(steps - 1, -1, -1):
            rows = slice(s * batch, (s + 1) * batch)
            if s:
                dh += g[(s - 1) * batch : s * batch]
            gates, tanh_c = acts[s]
            i, f, o, cand = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
            c_prev = cs[(s - 1) * batch : s * batch] if s else np.zeros((batch, hidden))
            dc = dc + dh * ((1.0 - tanh_c * tanh_c) * o)
            d = dz[rows]
            d[:, :hidden] = (1.0 - i) * (cand * i) * dc
            d[:, hidden : 2 * hidden] = (1.0 - f) * f * c_prev * dc
            d[:, 2 * hidden : 3 * hidden] = dh * ((1.0 - o) * hs[rows])
            d[:, 3 * hidden :] = (1.0 - cand * cand) * i * dc
            if s:
                dh = d @ w_h.T
                dc = dc * f
        return dz @ w_x.T, x.T @ dz, hs[:-batch].T @ dz[batch:], dz.sum(axis=0)

    return hs[batch:], pullback


def step_products_lstm_sequence(x, batch, w_x, w_h, b_gates):
    """``lstm_sequence`` before its coefficient pass: each step multiplies
    its gate gradients out from the gates, ``dc·g·i·(1-i)`` left to right,
    with ``tanh(c)`` recomputed from the cell rows."""
    hidden = w_h.shape[0]
    steps = x.shape[0] // batch
    zx, hs, cs, acts = _gates_forward(x, batch, w_x, w_h, b_gates)
    for s, (gates, _) in enumerate(acts):
        zx[s * batch : (s + 1) * batch] = gates

    def pullback(g, x):
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        d = np.empty((batch, 4 * hidden))
        for s in range(steps - 1, -1, -1):
            rows = slice(s * batch, (s + 1) * batch)
            if s:
                dh += g[(s - 1) * batch : s * batch]
            i, f, o, cand = (zx[rows][:, k * hidden : (k + 1) * hidden] for k in range(4))
            tanh_c = np.tanh(cs[rows])
            dc += dh * o * (1.0 - tanh_c * tanh_c)
            c_prev = cs[(s - 1) * batch : s * batch] if s else 0.0
            d[:, :hidden] = dc * cand * i * (1.0 - i)
            d[:, hidden : 2 * hidden] = dc * c_prev * f * (1.0 - f)
            d[:, 2 * hidden : 3 * hidden] = dh * tanh_c * o * (1.0 - o)
            d[:, 3 * hidden :] = dc * i * (1.0 - cand * cand)
            if s:
                dh = d @ w_h.T
                dc = dc * f
            zx[rows] = d
        return zx @ w_x.T, x.T @ zx, hs[:-batch].T @ zx[batch:], zx.sum(axis=0)

    return hs[batch:], pullback


def separate_coefficients_lstm_sequence(x, batch, w_x, w_h, b_gates):
    """``lstm_sequence`` whose pullback keeps its coefficients beside the
    gates instead of over them: a second [steps·B,4H] block and whole
    [steps·B,H] arrays of ``o(1-tanh_c²)`` and ``f``."""
    hidden = w_h.shape[0]
    steps = x.shape[0] // batch
    zx, hs, cs, acts = _gates_forward(x, batch, w_x, w_h, b_gates)
    gates = np.concatenate([gates for gates, _ in acts])
    del acts

    def pullback(g, x):
        i, f, o, cand = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
        c_prev = np.concatenate((np.zeros((batch, hidden)), cs[:-batch]))
        tanh_c = np.tanh(cs)
        coefficients = np.concatenate(
            ((1.0 - i) * (cand * i), (1.0 - f) * f * c_prev, (1.0 - o) * hs, (1.0 - cand * cand) * i), axis=1
        )
        cell = (1.0 - tanh_c * tanh_c) * o
        forget = f.copy()
        dz = zx
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for s in range(steps - 1, -1, -1):
            rows = slice(s * batch, (s + 1) * batch)
            if s:
                dh += g[(s - 1) * batch : s * batch]
            dc = dc + dh * cell[rows]
            d = dz[rows]
            d[...] = coefficients[rows] * np.tile(dc, 4)
            d[:, 2 * hidden : 3 * hidden] = dh * coefficients[rows, 2 * hidden : 3 * hidden]
            if s:
                dh = d @ w_h.T
                dc = dc * forget[rows]
        return dz @ w_x.T, x.T @ dz, hs[:-batch].T @ dz[batch:], dz.sum(axis=0)

    return hs[batch:], pullback


def stored_cells_lstm_sequence(x, batch, w_x, w_h, b_gates):
    """``lstm_sequence`` storing its cell rows beside the hidden rows, with
    a pullback that reads the inputs its closure holds, not the ones it is
    handed, and keeps every array until it returns."""
    hidden = w_h.shape[0]
    steps = x.shape[0] // batch
    inputs = x
    zx = x @ w_x
    hs = np.empty((steps * batch, hidden))
    cs = np.empty((steps * batch, hidden))
    h = c = np.zeros((batch, hidden))
    for s in range(steps):
        rows = slice(s * batch, (s + 1) * batch)
        z = zx[rows]
        if s:
            z += h @ w_h
        z += b_gates
        h, c = ad.lstm_cell(z, c)
        hs[rows], cs[rows] = h, c

    def pullback(g, x):
        span = batch * min(steps, max(1, ad.PASS_CELLS // (batch * hidden)))
        forget, k_o = np.empty((span, hidden)), np.empty((span, hidden))
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        carry = np.empty((batch, hidden))
        for top in range(len(cs), 0, -span):
            lo = max(0, top - span)
            ad._coefficients(
                zx[lo:top], cs[lo:top], hs[lo:top], cs[max(0, lo - batch) : top - batch], forget[: top - lo], k_o[: top - lo]
            )
            for r in range(top - batch, lo - 1, -batch):
                rows, local = slice(r, r + batch), slice(r - lo, r - lo + batch)
                if r:
                    dh += g[r - batch : r]
                dc += np.multiply(dh, cs[rows], out=carry)
                d = zx[rows]
                blocks = d.reshape(batch, 4, hidden)
                np.multiply(blocks, dc[:, None, :], out=blocks)
                np.multiply(dh, k_o[local], out=d[:, 2 * hidden : 3 * hidden])
                if r:
                    np.matmul(d, w_h.T, out=dh)
                    dc *= forget[local]
        return zx @ w_x.T, inputs.T @ zx, hs[:-batch].T @ zx[batch:], zx.sum(axis=0)

    return hs[batch:], pullback


def full_partial_head(hidden, targets, weights, params):
    """``trainer._output_head`` adding each later block's ``dw_out`` through a whole [H,V] buffer."""
    w_out = params.w_out
    blocks = model.row_blocks(len(hidden), w_out.shape[1])
    logits_buffer = np.empty((blocks[0].stop, w_out.shape[1]))
    nll = np.empty(len(hidden))
    dhidden = np.empty_like(hidden)
    dw_out = np.empty_like(w_out)
    partial = np.empty_like(w_out) if len(blocks) > 1 else None
    for block in blocks:
        h, t = hidden[block], targets[block]
        rows = np.arange(t.size)
        logits = np.matmul(h, w_out, out=logits_buffer[: t.size])
        logits += params.b_out
        if not np.isfinite(logits).all():
            raise trainer.NonFiniteError("sequence_loss: logits must be finite")
        logits -= logits.max(axis=1, keepdims=True)
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
            dw_out += np.matmul(h.T, dlogits, out=partial)
            db_out += dlogits.sum(axis=0)
    return nll, dhidden, dw_out, db_out


# ---------------------------------------------------------------------------
# optimizer


def textbook_adam_step(arrays, grads, m, v, t, alpha=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step ``t`` of bias-corrected Adam, out of place, on dicts of arrays.

    Rebinds ``arrays``, ``m`` and ``v`` entries to fresh arrays, one numpy
    expression per quantity, in the order Kingma & Ba write the update.
    """
    correction1 = 1.0 - beta1**t
    correction2 = 1.0 - beta2**t
    for name, g in grads.items():
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        m_hat = m[name] / correction1
        v_hat = v[name] / correction2
        arrays[name] = arrays[name] - alpha * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# decoders


class _Hyp(NamedTuple):
    ids: tuple
    logprob: float
    state: object
    next_logp: np.ndarray


def _sort_key(logprob, ids):
    """The documented tie rule: higher logprob first, then smaller id tuple."""
    return (-logprob, ids)


def log_softmax(z):
    """Log of softmax along the last axis, computed with max subtraction."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def emittable_ids(vocab_size, exclude_ids):
    return [t for t in range(vocab_size) if t not in set(int(i) for i in exclude_ids)]


def decode_step(state, tok, params):
    """One hypothesis fed ``tok``: its next state and its next-id log-probabilities [V]."""
    state, logp = step_rows(params.w_embed[[tok]], state, params)
    return state, logp[0]


def decode_start(feature, start_id, params):
    """The state after the image step and the start token, and the first distribution."""
    image = project_features(np.asarray(feature, dtype=np.float64)[None, :], params)
    return decode_step(advance_state(image, zero_state(params), params), int(start_id), params)


def greedy_decode(feature, start_id, params, max_len, exclude_ids=(PAD_ID,)):
    """Argmax at every step, lowest id on ties, as (ids, summed logprob)."""
    emittable = emittable_ids(params.dims.vocab, exclude_ids)
    state, logp = decode_start(feature, start_id, params)
    ids, total = [], 0.0
    while True:
        tok = min(emittable, key=lambda i: (-logp[i], i))
        ids.append(tok)
        total += float(logp[tok])
        if tok == EOS_ID or len(ids) >= max_len:
            return ids, total
        state, logp = decode_step(state, tok, params)


def per_image_top(candidates, rank, width):
    """(parent row, emittable column) of the top ``width`` candidates of one image.

    The earlier, one-image form of ``beam._top``: one flat cut at the
    ``width``-th largest score keeps every tie, then one ``lexsort`` by
    (-score, parent's rank, column) puts the kept candidates in tie-rule order.
    """
    flat = candidates.ravel()
    k = min(width, flat.size)
    cut = np.partition(flat, flat.size - k)[flat.size - k]
    kept = np.flatnonzero(flat >= cut)
    parent, column = np.divmod(kept, candidates.shape[1])
    order = np.lexsort((column, rank[parent], -flat[kept]))[:width]
    return parent[order], column[order]


def reference_beam_search(feature, start_id, params, config):
    """Beam search by sorting every (logprob, parent, token) candidate tuple.

    The scalar form of the library's beam: each step builds all W x V
    candidates and sorts them by the tie rule on the full id tuples.
    """
    emittable = emittable_ids(params.dims.vocab, config.exclude_ids)
    live = [_Hyp((), 0.0, *decode_start(feature, start_id, params))]
    finished = []
    while live:
        candidates = []
        for hyp in live:
            for tok in emittable:
                candidates.append((hyp.logprob + float(hyp.next_logp[tok]), hyp, tok))
        candidates.sort(key=lambda c: _sort_key(c[0], c[1].ids + (c[2],)))
        live = []
        for logprob, hyp, tok in candidates[: config.width]:
            ids = hyp.ids + (tok,)
            if tok == EOS_ID or len(ids) >= config.max_len:
                finished.append((ids, logprob))
            else:
                state, logp = decode_step(hyp.state, tok, params)
                live.append(_Hyp(ids, logprob, state, logp))

    def rank_key(item):
        ids, logprob = item
        score = logprob / len(ids) if config.length_norm else logprob
        return _sort_key(score, ids)

    finished.sort(key=rank_key)
    return [(list(ids), logprob) for ids, logprob in finished[: config.width]]


def exhaustive_decode(feature, start_id, params, max_len, exclude_ids=(PAD_ID,)):
    """The exact argmax sequence by full enumeration, same tie rule.

    Enumerates every emittable sequence that either ends with eos or runs
    to ``max_len`` tokens. Refuses vocabularies where the enumeration would
    exceed a million sequences.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if params.dims.vocab**max_len > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"search space {params.dims.vocab}^{max_len} exceeds {EXHAUSTIVE_LIMIT} sequences"
        )
    emittable = emittable_ids(params.dims.vocab, exclude_ids)
    best_ids, best_logprob = None, -math.inf
    stack = [_Hyp((), 0.0, *decode_start(feature, start_id, params))]
    while stack:
        hyp = stack.pop()
        for tok in emittable:
            logprob = hyp.logprob + float(hyp.next_logp[tok])
            ids = hyp.ids + (tok,)
            if tok == EOS_ID or len(ids) >= max_len:
                if best_ids is None or _sort_key(logprob, ids) < _sort_key(best_logprob, best_ids):
                    best_ids, best_logprob = ids, logprob
            else:
                state, logp = decode_step(hyp.state, tok, params)
                stack.append(_Hyp(ids, logprob, state, logp))
    return list(best_ids), best_logprob
