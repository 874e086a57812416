"""Single-layer LSTM caption decoder conditioned on an image feature.

The image feature is injected once, as the first input step (projected into
embedding space); the language start token is the second input; the caption
tokens follow under teacher forcing. The distribution produced by the image
step is never scored, and the start token is never a prediction target: a
caption of N ids (terminal eos included) yields exactly N scored steps.
Gate order inside the packed pre-activation block is input, forget, output,
candidate, with the forget-gate bias slice initialized to one.

The parameters set every buffer's dtype. Training runs the whole
teacher-forced recurrence as ``autodiff.lstm_sequence``; decoding steps the
same cell (``lstm_cell``) here, on a decode state that is the ``(h, c)`` pair
of [rows,H] arrays: ``project_features`` gives each image's first input row,
cast to that dtype, ``advance_state`` advances a block of rows, one per
sequence, and ``step_rows`` advances them and scores the next id: a decode
step holds at most two [rows,V] arrays. Its one-row form ``step_distribution``
is kept only because ``perfbench/`` calls it; it goes with ROADMAP item 1a. A
1-row matmul rounds differently from a row inside a block, so these functions
run a lone row as a 2-row block, and ``row_blocks`` cuts [rows,V] work with no
lone row beside others: a row gets the same bits in any block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .rng import generator

INIT_SCALE = 0.08
BLOCK_CELLS = 2**21  # cells of each [rows,V] head or decode block array: 16 MB in float64, 8 MB in float32; a step holds two


@dataclass(frozen=True)
class Dims:
    """Model dimensions: vocabulary, embedding, hidden state, image feature."""

    vocab: int
    embed: int
    hidden: int
    feature: int

    def __post_init__(self):
        check_fields("dims", vars(self), ("vocab", "embed", "hidden", "feature"))


def check_fields(owner: str, fields: dict, counts, flags=()) -> None:
    """Refuse each ``counts`` entry of ``fields`` but an int >= 1 (a bool is not one), and each ``flags`` entry but a bool."""
    for name in counts:
        value = fields[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{owner}.{name} must be a positive int, got {value!r}")
    for name in flags:
        if not isinstance(value := fields[name], bool):
            raise ValueError(f"{owner}.{name} must be true or false, got {value!r}")


@dataclass
class ModelParams:
    """All trainable arrays, in the fixed order used for Adam and storage."""

    dims: Dims
    w_embed: np.ndarray  # [V, E] token embedding rows
    w_image: np.ndarray  # [D, E] image feature projection
    b_image: np.ndarray  # [E]
    w_x: np.ndarray      # [E, 4H] input weights, gates packed i|f|o|g
    w_h: np.ndarray      # [H, 4H] recurrent weights
    b_gates: np.ndarray  # [4H]
    w_out: np.ndarray    # [H, V] output projection
    b_out: np.ndarray    # [V]

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in param_shapes(self.dims)]


def param_shapes(dims: Dims) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter, in the fixed order used for Adam and storage."""
    v, e, h, d = dims.vocab, dims.embed, dims.hidden, dims.feature
    return {
        "w_embed": (v, e),
        "w_image": (d, e),
        "b_image": (e,),
        "w_x": (e, 4 * h),
        "w_h": (h, 4 * h),
        "b_gates": (4 * h,),
        "w_out": (h, v),
        "b_out": (v,),
    }


def init_params(dims: Dims, seed) -> ModelParams:
    """Fresh parameters: uniform(-0.08, 0.08) weights drawn in declared
    order, zero biases except the forget-gate block, which starts at one."""
    rng = generator(seed)
    arrays = {
        name: rng.uniform(-INIT_SCALE, INIT_SCALE, shape) if name.startswith("w_") else np.zeros(shape)
        for name, shape in param_shapes(dims).items()
    }
    arrays["b_gates"][dims.hidden : 2 * dims.hidden] = 1.0
    return ModelParams(dims, **arrays)


def zero_state(params: ModelParams, batch: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All-zero [batch,H] start state ``(h, c)``."""
    shape = (batch, params.dims.hidden)
    return np.zeros(shape, params.w_h.dtype), np.zeros(shape, params.w_h.dtype)


def _block(rows: np.ndarray) -> np.ndarray:
    """``rows`` [N,...], with a lone row duplicated into a 2-row block."""
    return np.concatenate([rows, rows]) if len(rows) == 1 else rows


def row_blocks(n: int, vocab: int) -> list[slice]:
    """Slices that cut ``n`` rows into near-equal blocks for ``[rows,V]`` work.

    Each block holds at most ``max(2, BLOCK_CELLS // vocab)`` rows where ``n``
    allows, and one row only when ``n`` is 1: a 1-row matmul rounds
    differently from a block row. The taller blocks come first.
    """
    rows = max(2, BLOCK_CELLS // vocab)
    count = max(1, min(-(-n // rows), n // 2))  # ceil(n / rows), but never a lone row beside others
    edges = [k * (n // count) + min(k, n % count) for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def advance_state(x: np.ndarray, state, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence step on row inputs: x [B,E], state ``(h, c)`` [B,H] -> [B,H]. A lone row runs as a 2-row block."""
    if x.ndim != 2 or x.shape[1] != params.dims.embed:
        raise ValueError(f"advance_state: input rows {x.shape} do not have width {params.dims.embed}")
    h, c = state
    z = _block(x) @ params.w_x + _block(h) @ params.w_h
    z += params.b_gates
    h, c = ad.lstm_cell(z, _block(c))
    return h[: len(x)], c[: len(x)]


def project_features(features: np.ndarray, params: ModelParams) -> np.ndarray:
    """Image features [N,D] projected into embedding space: each decode's first input row [N,E]."""
    return (_block(features.astype(params.w_image.dtype, copy=False)) @ params.w_image + params.b_image)[: len(features)]


def step_rows(x_rows: np.ndarray, state, params: ModelParams) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """One decode step for a block of rows: input rows [N,E] and state ``(h, c)``
    [N,H] to the new state and next-id log-probabilities [N,V], normalised in
    place. A lone row runs as a 2-row block."""
    h, c = advance_state(x_rows, state, params)
    logp = _block(h) @ params.w_out
    logp += params.b_out
    logp -= logp.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    return (h, c), logp[: len(x_rows)]


def step_distribution(state, token_or_feature, params: ModelParams) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """``step_rows`` on one row, for a token id (embedded) or a 1-D feature (projected).

    The state is one ``(h, c)`` pair of [1,H] rows and the log-probabilities
    are a 1-D [V] array. Kept only because ``perfbench/`` calls it; it goes
    with ROADMAP item 1a. No decode runs it, and the tests step ``step_rows``.
    """
    if isinstance(token_or_feature, (int, np.integer)):
        tok = int(token_or_feature)
        if not 0 <= tok < params.dims.vocab:
            raise IndexError(f"step_distribution: token id {tok} out of range")
        x = params.w_embed[[tok]]
    else:
        feature = np.asarray(token_or_feature)
        if feature.ndim != 1:
            raise ValueError(f"step_distribution: feature must be 1-D, got shape {feature.shape}")
        x = project_features(feature[None, :], params)
    new, logp = step_rows(x, state, params)
    return new, logp[0]
