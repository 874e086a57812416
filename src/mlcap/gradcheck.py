"""Finite-difference verification of the hand-written gradients.

``gradient_check`` compares any ``(loss, grads)`` function with central
finite differences of the fixed step ``FD_STEP``. ``battery`` names the
checks that ``mlcap gradcheck`` runs: the fused ``lstm_sequence`` with its
pullback, handed the inputs back, and the full caption loss on a pinned
reference model (``reference_sequence_check``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .model import Dims, ModelParams, param_shapes
from .trainer import Example, make_batch, sequence_loss

# Model seed for the pinned sequence-loss check. With the training-time
# init scale some gradient coordinates sit below the finite-difference
# noise floor (~1e-11 absolute for an O(1) loss), so that check uses a
# fixed wide-scale model verified to keep every coordinate well above it.
REFERENCE_MODEL_SEED = 2
FD_STEP = 1e-5  # the central-difference step of gradient_check


def gradient_check(f: Callable[[], tuple], inputs: dict[str, np.ndarray]) -> float:
    """Worst relative disagreement between hand-written and finite-difference grads.

    ``f()`` returns ``(loss, grads)``: a scalar loss and, for every name in
    ``inputs``, the gradient of the loss with respect to that array. The
    finite-difference side perturbs the arrays of ``inputs`` in place, one
    coordinate at a time, with central differences of step ``FD_STEP``; the
    relative error of a coordinate is
    |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|) and the maximum over all
    coordinates of all inputs is returned.
    """
    loss, grads = f()
    if np.ndim(loss) != 0:
        raise ValueError(f"gradient_check: f must return a scalar loss, got shape {np.shape(loss)}")
    worst = 0.0
    for name, array in inputs.items():
        flat = array.reshape(-1)
        flat_ad = np.asarray(grads[name]).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + FD_STEP
            f_plus = float(f()[0])
            flat[j] = orig - FD_STEP
            f_minus = float(f()[0])
            flat[j] = orig
            g_fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            denom = max(1e-12, abs(flat_ad[j]) + abs(g_fd))
            worst = max(worst, abs(flat_ad[j] - g_fd) / denom)
    return worst


def reference_sequence_check():
    """Full-loss gradient check on a pinned small model.

    Returns ``(f, inputs)`` for ``gradient_check``: a single four-token
    teacher-forced sequence through a model with every parameter drawn
    uniform(-0.5, 0.5) (forget-gate offset kept). The draw is fixed so the
    check is deterministic and its finite-difference margin is known.
    """
    dims = Dims(vocab=10, embed=6, hidden=8, feature=5)
    rng = np.random.default_rng(REFERENCE_MODEL_SEED)
    # b_gates is drawn first, then the rest in param_shapes order
    b_gates = rng.uniform(-0.5, 0.5, 4 * dims.hidden)
    b_gates[dims.hidden : 2 * dims.hidden] += 1.0
    arrays = {
        name: b_gates if name == "b_gates" else rng.uniform(-0.5, 0.5, shape)
        for name, shape in param_shapes(dims).items()
    }
    params = ModelParams(dims, **arrays)
    token_ids = tuple(int(t) for t in rng.integers(3, dims.vocab, 3)) + (2,)
    batch = make_batch([Example(rng.normal(size=dims.feature), 3, token_ids)])
    return (lambda: sequence_loss(batch, params)), dict(params.named_parameters())


def battery(seed: int):
    """Named finite-difference checks ``(name, f, inputs)``: the LSTM run and the pinned full loss.

    The ``lstm_sequence`` inputs are drawn from ``seed`` and its output is
    read through random weights, so every output coordinate carries its own
    O(1) gradient and any seed passes. The sequence-loss entry is the fixed
    reference model from ``reference_sequence_check``.
    """
    rng = np.random.default_rng(seed)
    batch, steps, embed, hidden = 2, 3, 3, 2
    shapes = {
        "x": ((steps + 1) * batch, embed),
        "w_x": (embed, 4 * hidden),
        "w_h": (hidden, 4 * hidden),
        "b_gates": (4 * hidden,),
    }
    cell = {name: rng.uniform(-0.5, 0.5, shape) for name, shape in shapes.items()}
    readout = rng.uniform(-0.5, 0.5, (steps * batch, hidden))

    def lstm_check():
        hs, pullback = ad.lstm_sequence(cell["x"], batch, cell["w_x"], cell["w_h"], cell["b_gates"])
        # the pullback takes the inputs back and returns the gradients in ``shapes``'s order
        return float((hs * readout).sum()), dict(zip(cell, pullback(readout, cell["x"])))

    return [("lstm_sequence", lstm_check, cell), ("sequence_loss", *reference_sequence_check())]
