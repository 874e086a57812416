"""Small models, and the two checks on them that tests share.

The builders: ``random_params`` (the training init), ``wide_params``
(every coordinate drawn at a finite-difference-friendly scale),
``prefix_free_params`` (a fixed next-token distribution, as from
``toy_distribution``) and ``tiny_examples`` (training examples that pad).
``array_bytes`` is the one bit-for-bit comparison of parameter sets, or
of any arrays by name, and ``traced_peak`` the one working-set probe.
"""

import tracemalloc

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
    # b_gates first, then the rest in param_shapes order: gradcheck.reference_sequence_check's draw
    b_gates = rng.uniform(-scale, scale, 4 * hidden)
    b_gates[hidden : 2 * hidden] += 1.0
    shapes = param_shapes(dims).items()
    return ModelParams(dims, **{name: b_gates if name == "b_gates" else rng.uniform(-scale, scale, shape) for name, shape in shapes})


def array_bytes(arrays):
    """Each array of ``arrays``, a ``ModelParams`` or a dict by name, as name: (dtype, shape, bytes)."""
    items = arrays.named_parameters() if isinstance(arrays, ModelParams) else arrays.items()
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in items}


def traced_peak(call):
    """The peak bytes that ``tracemalloc`` traces while ``call()`` runs; numpy reports its buffers to it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
