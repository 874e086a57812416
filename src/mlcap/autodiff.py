"""Hand-written gradients for the caption decoder, on plain float64 arrays.

There is no tape. The one trained graph, the caption loss, is written out
forward and then backward in ``trainer.sequence_loss``; the recurrence it
runs is ``lstm_sequence``, which returns its hidden rows together with a
pullback that backpropagates through time by hand. The run keeps its
activations in buffers it needs anyway, and dropping the pullback frees
them, which ``sequence_loss`` does before it builds the embedding gradient.
The pieces:

- ``lstm_cell``, the gate arithmetic of one step, shared by
  ``lstm_sequence`` and the decoder;
- ``lstm_sequence``, a whole teacher-forced LSTM run from the zero state;
- ``log_softmax``, the decoder's normalisation.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not fit the requested operation."""


class NonFiniteError(ValueError):
    """A computation met NaN or infinite values where it needs finite ones."""


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) is 1 for x >= 0 and exp(-|x|) below, so neither exp overflows
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _gate_blocks(gates: np.ndarray, hidden: int):
    """The four [B,H] gate blocks of ``gates`` as views, by basic slicing."""
    return tuple(gates[:, k * hidden : (k + 1) * hidden] for k in range(4))


def lstm_cell(z: np.ndarray, c_prev: np.ndarray):
    """One LSTM step on plain arrays: ``(h, c, gates, tanh_c)``.

    ``z`` [B,4H] is the packed pre-activation, blocks in the order input,
    forget, output, candidate; ``c_prev`` [B,H] is the previous cell. The
    returned ``gates`` [B,4H] hold sigmoid of the first three blocks and
    tanh of the candidate; ``tanh_c`` is tanh of the new cell. The last
    two are what backpropagation through the step needs.
    """
    hidden = c_prev.shape[1]
    gates = np.empty_like(z)
    gates[:, : 3 * hidden] = _stable_sigmoid(z[:, : 3 * hidden])
    gates[:, 3 * hidden :] = np.tanh(z[:, 3 * hidden :])
    i, f, o, g = _gate_blocks(gates, hidden)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, gates, tanh_c


def lstm_sequence(x: np.ndarray, batch: int, w_x: np.ndarray, w_h: np.ndarray, b_gates: np.ndarray):
    """A teacher-forced LSTM run from the zero state: ``(hidden_rows, pullback)``.

    ``x`` [(T+1)*B,E] holds the inputs of ``batch`` sequences, time-major:
    rows s*B..(s+1)*B are step s. ``hidden_rows`` are the hidden rows of
    steps 1..T, [T*B,H], in the same order. The input projection of every
    step is one matmul. ``pullback(g)`` takes the gradient of the loss with
    respect to ``hidden_rows`` and returns ``(dx, dw_x, dw_h, db_gates)``,
    ``dx`` shaped like ``x``: backpropagation through time written out by
    hand, with one matmul over all steps per weight gradient. One
    [(T+1)*B,4H] buffer holds the input projections, then each step's gates
    over its rows, then the gate gradients over the gates; the pullback
    recomputes ``tanh`` of the cell rows rather than keeping it.
    """
    hidden = w_h.shape[0]
    if (
        x.ndim != 2
        or not 0 < batch <= x.shape[0]
        or x.shape[0] % batch
        or w_x.shape != (x.shape[1], 4 * hidden)
        or w_h.shape != (hidden, 4 * hidden)
        or b_gates.shape != (4 * hidden,)
    ):
        raise DimensionError(
            f"lstm_sequence: shapes x {x.shape} in batches of {batch}, w_x {w_x.shape}, "
            f"w_h {w_h.shape}, b_gates {b_gates.shape} do not fit"
        )
    steps = x.shape[0] // batch
    zx = x @ w_x
    hs = np.empty((steps * batch, hidden))  # hidden rows, time-major
    cs = np.empty((steps * batch, hidden))
    h = c = np.zeros((batch, hidden))
    for s in range(steps):
        rows = slice(s * batch, (s + 1) * batch)
        z = zx[rows]  # the pre-activation forms in the row, and the gates replace it
        if s:
            z += h @ w_h
        z += b_gates
        h, c, zx[rows], _ = lstm_cell(z, c)
        hs[rows], cs[rows] = h, c

    def pullback(g: np.ndarray):
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        d = np.empty((batch, 4 * hidden))  # one step's gate gradients, before they replace its gates
        for s in range(steps - 1, -1, -1):
            rows = slice(s * batch, (s + 1) * batch)
            if s:
                dh += g[(s - 1) * batch : s * batch]
            i, f, o, cand = _gate_blocks(zx[rows], hidden)
            tanh_c = np.tanh(cs[rows])
            dc += dh * o * (1.0 - tanh_c * tanh_c)
            c_prev = cs[(s - 1) * batch : s * batch] if s else 0.0
            d[:, :hidden] = dc * cand * i * (1.0 - i)
            d[:, hidden : 2 * hidden] = dc * c_prev * f * (1.0 - f)
            d[:, 2 * hidden : 3 * hidden] = dh * tanh_c * o * (1.0 - o)
            d[:, 3 * hidden :] = dc * i * (1.0 - cand * cand)
            if s:
                dh = d @ w_h.T
                dc = dc * f  # f is a view of the gates, so read it before d replaces them
            zx[rows] = d
        return zx @ w_x.T, x.T @ zx, hs[:-batch].T @ zx[batch:], zx.sum(axis=0)

    return hs[batch:], pullback


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log of softmax along the last axis, computed with max subtraction."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
