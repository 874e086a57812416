"""The caption decoder's recurrence, with hand-written gradients, on plain arrays in the parameters' dtype.

The caption loss is written out forward and then backward in
``trainer.sequence_loss``; the recurrence it runs is ``lstm_sequence``,
which returns its hidden rows together with a pullback that backpropagates
through time by hand. The run keeps only its gates and hidden rows, the
pullback recomputes the cells and is handed the inputs back, and each is
freed after its last read. The pieces:

- ``lstm_cell``, the gate arithmetic of one step, shared by ``lstm_sequence``
  and the decoder; its cell update ``_cell`` is the pullback's recompute too;
- ``lstm_sequence``, a whole teacher-forced LSTM run from the zero state.
"""

from __future__ import annotations

import numpy as np

# cells of each [rows,H] array in one coefficient pass of the pullback: every
# step at once at H=64, B=32, one step at a time (in cache) at H=512, B=128
PASS_CELLS = 2**15


def _stable_sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) is 1 for x >= 0 and exp(-|x|) below, so neither exp overflows;
    # each of the two temporaries is written over by the rest of its chain
    denominator = np.abs(x)
    np.negative(denominator, out=denominator)
    np.exp(denominator, out=denominator)
    denominator += 1.0
    numerator = np.minimum(x, 0.0)
    np.exp(numerator, out=numerator)
    return np.divide(numerator, denominator, out=out)


def _gate_blocks(gates: np.ndarray, hidden: int):
    """The four [B,H] gate blocks of ``gates`` as views, by basic slicing."""
    return tuple(gates[:, k * hidden : (k + 1) * hidden] for k in range(4))


def _cell(gates: np.ndarray, c_prev: np.ndarray) -> np.ndarray:
    """The new cell ``f·c_prev + i·g`` from the activated gates [B,4H] and the previous cell [B,H]."""
    i, f, _, g = _gate_blocks(gates, c_prev.shape[1])
    return f * c_prev + i * g


def lstm_cell(z: np.ndarray, c_prev: np.ndarray):
    """One LSTM step on plain arrays: the new ``(h, c)``.

    ``z`` [B,4H] is the packed pre-activation, blocks in the order input,
    forget, output, candidate; ``c_prev`` [B,H] is the previous cell. The
    gates are written over ``z``: sigmoid of the first three blocks and tanh
    of the candidate.
    """
    hidden = c_prev.shape[1]
    _stable_sigmoid(z[:, : 3 * hidden], out=z[:, : 3 * hidden])
    np.tanh(z[:, 3 * hidden :], out=z[:, 3 * hidden :])
    c = _cell(z, c_prev)
    return z[:, 2 * hidden : 3 * hidden] * np.tanh(c), c


def _coefficients(gates, cells, hidden, prev_cells, forget, k_o) -> None:
    """Turn a run of rows' gates and cells, in place, into what a step back through time multiplies by.

    ``gates`` [R,4H] become ``(1-i)·(g·i)``, ``(1-f)·f·c_prev``, scratch and
    ``(1-g²)·i``; ``cells`` [R,H] become ``(1-tanh_c²)·o``; ``forget`` and
    ``k_o`` [R,H] receive ``f`` and ``(1-o)·h``, with ``h`` the rows'
    ``hidden`` rows, ``o·tanh_c``. ``prev_cells`` are the cells one step
    before the rows; the first rows it lacks are the first step's, whose
    previous cell is zero.
    """
    i, f, o, cand = _gate_blocks(gates, cells.shape[1])
    forget[...] = f
    gi = np.multiply(cand, i, out=k_o)  # k_o is scratch until its own coefficient
    cand *= cand
    np.subtract(1.0, cand, out=cand)
    cand *= i
    np.subtract(1.0, i, out=i)
    i *= gi
    np.subtract(1.0, forget, out=k_o)
    k_o *= forget
    first = len(f) - len(prev_cells)
    f[:first] = 0.0
    np.multiply(k_o[first:], prev_cells, out=f[first:])
    tanh_c = np.tanh(cells, out=cells)
    tanh_c *= tanh_c
    np.subtract(1.0, tanh_c, out=cells)
    cells *= o
    np.subtract(1.0, o, out=k_o)
    k_o *= hidden


def lstm_sequence(x: np.ndarray, batch: int, w_x: np.ndarray, w_h: np.ndarray, b_gates: np.ndarray):
    """A teacher-forced LSTM run from the zero state: ``(hidden_rows, pullback)``.

    ``x`` [(T+1)*B,E] holds the inputs of ``batch`` sequences, time-major:
    rows s*B..(s+1)*B are step s. ``hidden_rows`` are the hidden rows of
    steps 1..T, [T*B,H], in the same order. The input projection of every
    step is one matmul. ``pullback(g, x)``, which runs once, takes the
    gradient of the loss with respect to ``hidden_rows`` and the inputs
    again, and returns ``(dx, dw_x, dw_h, db_gates)``, ``dx`` shaped like
    ``x``: backpropagation through time by hand, one matmul per weight.

    The run keeps only the hidden rows and one [(T+1)*B,4H] buffer: the
    input projections, then each step's gates. The pullback recomputes the
    cell rows from the gates by ``_cell``, ``lstm_cell``'s own update, so
    bit for bit, and turns both into ``_coefficients`` in passes of
    ``PASS_CELLS // H`` rows (whole steps, at least one), last first; a step
    back is then a few multiplies over its coefficients and one matmul. It
    drops the cells, the hidden rows and the inputs after their last reads.
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
        raise ValueError(
            f"lstm_sequence: shapes x {x.shape} in batches of {batch}, w_x {w_x.shape}, "
            f"w_h {w_h.shape}, b_gates {b_gates.shape} do not fit"
        )
    steps = x.shape[0] // batch
    zx = x @ w_x
    hs = np.empty((steps * batch, hidden), zx.dtype)  # hidden rows, time-major; every buffer takes the dtype of x @ w_x
    h = c = np.zeros((batch, hidden), hs.dtype)
    for s in range(steps):
        rows = slice(s * batch, (s + 1) * batch)
        z = zx[rows]  # the pre-activation forms in the row, and the gates replace it
        if s:
            z += h @ w_h
        z += b_gates
        h, c = lstm_cell(z, c)
        hs[rows] = h

    def pullback(g: np.ndarray, x: np.ndarray):
        nonlocal hs
        cs, c = np.empty_like(hs), np.zeros((batch, hidden), hs.dtype)
        for r in range(0, len(cs), batch):  # the cell rows again, by lstm_cell's own update
            c = cs[r : r + batch] = _cell(zx[r : r + batch], c)
        span = batch * min(steps, max(1, PASS_CELLS // (batch * hidden)))
        forget, k_o = np.empty((span, hidden), hs.dtype), np.empty((span, hidden), hs.dtype)
        dh, dc = np.zeros((batch, hidden), hs.dtype), np.zeros((batch, hidden), hs.dtype)
        carry = np.empty((batch, hidden), hs.dtype)
        for top in range(len(cs), 0, -span):
            lo = max(0, top - span)
            _coefficients(
                zx[lo:top], cs[lo:top], hs[lo:top], cs[max(0, lo - batch) : top - batch], forget[: top - lo], k_o[: top - lo]
            )
            for r in range(top - batch, lo - 1, -batch):  # each step's first row, last step first
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
        del cs
        dw_h, hs = hs[:-batch].T @ zx[batch:], None  # each the last read of its rows
        dw_x, x = x.T @ zx, None
        return zx @ w_x.T, dw_x, dw_h, zx.sum(axis=0)

    return hs[batch:], pullback
