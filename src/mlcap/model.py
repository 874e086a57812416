"""Single-layer LSTM caption decoder conditioned on an image feature.

The image feature is injected once, as the first input step (projected into
embedding space); the language start token is the second input; the caption
tokens follow under teacher forcing. The distribution produced by the image
step is never scored, and the start token is never a prediction target: a
caption of N ids (terminal eos included) yields exactly N scored steps.
Gate order inside the packed pre-activation block is input, forget, output,
candidate, with the forget-gate bias slice initialized to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import TokenSequence

PARAM_ORDER = ("w_embed", "w_image", "b_image", "w_x", "w_h", "b_gates", "w_out", "b_out")

INIT_SCALE = 0.08


@dataclass(frozen=True)
class Dims:
    """Model dimensions: vocabulary, embedding, hidden state, image feature."""

    vocab: int
    embed: int
    hidden: int
    feature: int

    def __post_init__(self):
        for name in ("vocab", "embed", "hidden", "feature"):
            if getattr(self, name) < 1:
                raise ValueError(f"dims.{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class LstmState:
    """Hidden and cell activations, one [B,H] row per sequence."""

    h: Tensor
    c: Tensor


@dataclass
class ModelParams:
    """All trainable tensors, in the fixed order used for Adam and storage."""

    dims: Dims
    w_embed: Tensor  # [V, E] token embedding rows
    w_image: Tensor  # [D, E] image feature projection
    b_image: Tensor  # [E]
    w_x: Tensor      # [E, 4H] input weights, gates packed i|f|o|g
    w_h: Tensor      # [H, 4H] recurrent weights
    b_gates: Tensor  # [4H]
    w_out: Tensor    # [H, V] output projection
    b_out: Tensor    # [V]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in PARAM_ORDER]

    def zero_grads(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()


def init_params(dims: Dims, seed) -> ModelParams:
    """Fresh parameters: uniform(-0.08, 0.08) weights drawn in declared
    order, zero biases except the forget-gate block, which starts at one."""
    rng = np.random.default_rng(seed)
    v, e, h, d = dims.vocab, dims.embed, dims.hidden, dims.feature

    def uniform(*shape):
        return ad.parameter(rng.uniform(-INIT_SCALE, INIT_SCALE, shape))

    w_embed = uniform(v, e)
    w_image = uniform(d, e)
    b_image = ad.parameter(np.zeros(e))
    w_x = uniform(e, 4 * h)
    w_h = uniform(h, 4 * h)
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    b_gates = ad.parameter(b)
    w_out = uniform(h, v)
    b_out = ad.parameter(np.zeros(v))
    return ModelParams(dims, w_embed, w_image, b_image, w_x, w_h, b_gates, w_out, b_out)


def zero_state(params: ModelParams, batch: int = 1) -> LstmState:
    """All-zero [batch,H] start state."""
    shape = (batch, params.dims.hidden)
    return LstmState(Tensor(np.zeros(shape)), Tensor(np.zeros(shape)))


def advance_state(x: Tensor, state: LstmState, params: ModelParams) -> LstmState:
    """One recurrence step on row inputs: x [B,E], state [B,H] -> [B,H]."""
    z = ad.add_bias(ad.add(ad.matmul(x, params.w_x), ad.matmul(state.h, params.w_h)), params.b_gates)
    hh = params.dims.hidden
    i = ad.sigmoid(ad.slice_last(z, 0, hh))
    f = ad.sigmoid(ad.slice_last(z, hh, 2 * hh))
    o = ad.sigmoid(ad.slice_last(z, 2 * hh, 3 * hh))
    g = ad.tanh(ad.slice_last(z, 3 * hh, 4 * hh))
    c = ad.add(ad.hadamard(f, state.c), ad.hadamard(i, g))
    h = ad.hadamard(o, ad.tanh(c))
    return LstmState(h, c)


def output_logits(state: LstmState, params: ModelParams) -> Tensor:
    return ad.add_bias(ad.matmul(state.h, params.w_out), params.b_out)


def project_feature(feature: Tensor, params: ModelParams) -> Tensor:
    """Image feature rows [B,D] into embedding space [B,E]."""
    return ad.add_bias(ad.matmul(feature, params.w_image), params.b_image)


def embed_tokens(params: ModelParams, ids) -> Tensor:
    """Embedding rows [B,E] for a vector of token ids."""
    return ad.take_rows(params.w_embed, np.asarray(ids, dtype=np.int64))


def _feature_row(feature, caller: str, params: ModelParams) -> Tensor:
    """One 1-D image feature, projected into a [1,E] input row."""
    data = feature.data if isinstance(feature, Tensor) else np.asarray(feature)
    if data.ndim != 1:
        raise ad.DimensionError(f"{caller}: feature must be 1-D, got shape {data.shape}")
    return project_feature(Tensor(data[None, :]), params)


@dataclass
class ForwardTrace:
    """Teacher-forced pass record: one probability row per scored target."""

    distributions: list[np.ndarray]
    final_state: LstmState
    sequence: TokenSequence
    start_id: int


def forward_sequence(feature, sequence: TokenSequence, start_id: int, params: ModelParams) -> ForwardTrace:
    """Score a caption against a feature without touching the tape.

    Inputs are the projected feature, the start id, then all caption ids
    but the last; the t-th recorded distribution predicts sequence.ids[t].
    """
    if not sequence.ids:
        raise ValueError("forward_sequence: sequence must contain at least the eos id")
    if not 0 <= start_id < params.dims.vocab:
        raise IndexError(f"forward_sequence: start id {start_id} out of range")
    with ad.no_grad():
        state = advance_state(_feature_row(feature, "forward_sequence", params), zero_state(params), params)
        distributions = []
        inputs = (start_id,) + sequence.ids[:-1]
        for tok in inputs:
            x = ad.take_rows(params.w_embed, np.array([tok], dtype=np.int64))
            state = advance_state(x, state, params)
            logp = ad.log_softmax(output_logits(state, params).data[0])
            distributions.append(np.exp(logp))
    return ForwardTrace(distributions, state, sequence, start_id)


def step_distribution(state: LstmState, token_or_feature, params: ModelParams) -> tuple[LstmState, Tensor]:
    """Advance one decode step and return log-probabilities for the next id.

    The input is either an integer token id (embedded) or a 1-D feature
    vector (projected). The state is a single [1,H] row and the returned
    log-probabilities are a 1-D [V] vector; the tape stays untouched.
    """
    with ad.no_grad():
        if isinstance(token_or_feature, (int, np.integer)):
            tok = int(token_or_feature)
            if not 0 <= tok < params.dims.vocab:
                raise IndexError(f"step_distribution: token id {tok} out of range")
            x = ad.take_rows(params.w_embed, np.array([tok], dtype=np.int64))
        else:
            x = _feature_row(token_or_feature, "step_distribution", params)
        new = advance_state(x, state, params)
        logp = ad.log_softmax(output_logits(new, params).data[0])
        return new, Tensor(logp)
