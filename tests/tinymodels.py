"""Small model builders and checkpoint edits shared across test modules."""

import json
import struct

import numpy as np

from mlcap.model import Dims, ModelParams, init_params, param_shapes
from mlcap.trainer import Example
from mlcap.vocab import EOS_ID

NEG_BIG = -1e9


def random_params(vocab=6, embed=3, hidden=4, feature=2, seed=0):
    return init_params(Dims(vocab, embed, hidden, feature), seed)


def wide_params(vocab=6, embed=3, hidden=4, feature=2, seed=0, scale=0.5):
    """Random parameters with every coordinate perturbed at a larger scale.

    Finite-difference comparisons need gradients that sit well above the
    subtraction noise floor (~1e-11 for an O(1) loss); the training-time
    init is too timid for that, so these draw uniform(-scale, scale)
    everywhere, including all bias vectors, keeping the forget-gate offset.
    """
    dims = Dims(vocab, embed, hidden, feature)
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-scale, scale, shape)
    b_gates = rng.uniform(-scale, scale, 4 * hidden)
    b_gates[hidden : 2 * hidden] += 1.0
    return ModelParams(
        dims,
        w_embed=u(vocab, embed),
        w_image=u(feature, embed),
        b_image=u(embed),
        w_x=u(embed, 4 * hidden),
        w_h=u(hidden, 4 * hidden),
        b_gates=b_gates,
        w_out=u(hidden, vocab),
        b_out=u(vocab),
    )


def tiny_examples(params, rng, count=4, max_tokens=3):
    """Random training examples sized for the given model; lengths vary, so
    a batch of them holds padding."""
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_tokens + 1))
        ids = tuple(int(t) for t in rng.integers(3, params.dims.vocab, n)) + (EOS_ID,)
        out.append(Example(rng.normal(size=params.dims.feature), 3, ids))
    return out


def prefix_free_params(log_weights, embed=2, hidden=2, feature=2):
    """A decoder whose next-token distribution ignores the prefix entirely.

    All weights are zero and ``b_out`` holds the given per-token scores, so
    every step emits softmax(log_weights) regardless of input or state.
    Probability-zero tokens should use a large negative score.
    """
    log_weights = np.asarray(log_weights, dtype=np.float64)
    dims = Dims(len(log_weights), embed, hidden, feature)
    zeros = lambda *shape: np.zeros(shape)
    return ModelParams(
        dims,
        w_embed=zeros(dims.vocab, embed),
        w_image=zeros(feature, embed),
        b_image=zeros(embed),
        w_x=zeros(embed, 4 * hidden),
        w_h=zeros(hidden, 4 * hidden),
        b_gates=zeros(4 * hidden),
        w_out=zeros(hidden, dims.vocab),
        b_out=log_weights.copy(),
    )


def toy_distribution():
    """Token scores for (pad, unk, eos, a, b) with p = (0, 0, .2, .5, .3)."""
    return np.array([NEG_BIG, NEG_BIG, np.log(0.2), np.log(0.5), np.log(0.3)])


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint file, passing its JSON header through ``edit``."""
    blob = src.read_bytes()
    (length,) = struct.unpack_from("<Q", blob, 6)
    header = json.loads(blob[14 : 14 + length])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    dst.write_bytes(blob[:6] + struct.pack("<Q", len(text)) + text + blob[14 + length :])


def claim_dims(header, **dims):
    """A checkpoint header edit: new dims and the array manifest they imply."""
    header["dims"].update(dims)
    shapes = param_shapes(Dims(**header["dims"]))
    header["arrays"] = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]


def break_surface_tokens(header):
    """A checkpoint header edit: every surface token ``t`` becomes ``t\\nX\\tt``,
    so each caption line written from it would split into three."""
    vocab = header["vocab"]
    first = 3 + len(vocab["languages"])
    vocab["tokens"][first:] = [f"{t}\nX\t{t}" for t in vocab["tokens"][first:]]
