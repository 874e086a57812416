"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-based engine: every differentiable op allocates a fresh output
tensor and, when gradients are enabled, records the inputs together with a
backward rule as a ``TapeEntry`` on that output. ``backward`` walks the
recorded entries in reverse topological order, accumulates gradients into
``Tensor.grad`` and frees the graph as it goes. The op set is exactly what
the caption loss needs:

- ``matmul``, ``add_bias`` (the only broadcast: a vector added to every
  row), ``hadamard``, ``take_rows``, ``sum_all`` and ``scale``;
- ``lstm_sequence``, a whole teacher-forced LSTM run as one op, with a
  hand-written backpropagation-through-time rule;
- ``cross_entropy_rows``, per-row softmax cross-entropy.

``lstm_cell`` is the tape-free gate arithmetic shared by ``lstm_sequence``
and the decoder; ``softmax``/``log_softmax`` are plain ndarray helpers.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not fit the requested operation."""


class GradientError(RuntimeError):
    """Backward-pass misuse, e.g. running backward twice on one graph."""


class NonFiniteError(ValueError):
    """An op met NaN or infinite values where it needs finite ones."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager that suspends tape recording (finite differences use it)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A float64 ndarray with an optional gradient and tape linkage.

    ``data`` is always a C-contiguous float64 array. ``grad`` stays ``None``
    until ``backward`` accumulates into it; it always matches ``data`` in
    shape. ``entry`` is the tape record of the op that produced this tensor,
    or ``None`` for leaves and constants.
    """

    __slots__ = ("data", "requires_grad", "grad", "entry", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.entry: TapeEntry | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.ndim != 0:
            raise ValueError(f"item: tensor has shape {self.shape}, expected a scalar")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


@dataclass
class TapeEntry:
    """One recorded op: its input tensors, output tensor, and backward rule.

    The rule receives the gradient of the loss with respect to the output
    and accumulates gradients into the inputs.
    """

    inputs: tuple[Tensor, ...]
    output: Tensor
    rule: Callable[[np.ndarray], None]


def parameter(data) -> Tensor:
    """A leaf tensor that participates in gradient accumulation."""
    return Tensor(data, requires_grad=True)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _record(out: Tensor, inputs: Sequence[Tensor], rule) -> Tensor:
    if _grad_enabled and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        out.entry = TapeEntry(tuple(inputs), out, rule)
    return out


def tape_of(result: Tensor) -> list[TapeEntry]:
    """All tape entries reachable from ``result``, in topological order.

    Every entry appears after the entries that produced its inputs. The
    order is a deterministic function of graph construction order.
    """
    order: list[TapeEntry] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(result, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node.entry)  # type: ignore[arg-type]
            continue
        if node.entry is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for inp in node.entry.inputs:
            stack.append((inp, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` for every reachable leaf.

    ``loss`` must be a scalar. A second call on the same graph raises
    ``GradientError``; rebuild the graph (and zero grads) to differentiate
    again. Calling backward on a scalar constant is a no-op. Each entry is
    unlinked from its output once its rule has run, so the graph holds no
    reference cycle and is freed by reference counting alone.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if loss._consumed:
        raise GradientError(
            "backward was already called on this graph; rebuild the graph to differentiate again"
        )
    loss._consumed = True
    if not loss.requires_grad:
        return
    entries = tape_of(loss)
    loss.grad = np.ones((), dtype=np.float64)
    while entries:
        entry = entries.pop()
        entry.output.entry = None
        if entry.output.grad is not None:
            entry.rule(entry.output.grad)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Strict 2-D matrix product [m,k] x [k,n] -> [m,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record(out, (a, b), rule)


def add_bias(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an [r,n] matrix.

    This is the only sanctioned broadcast in the engine; the backward rule
    for the vector sums the incoming gradient over rows.
    """
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise DimensionError(f"add_bias: shape mismatch {m.shape} vs {v.shape}")
    out = Tensor(m.data + v.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(m, g)
        _accumulate(v, g.sum(axis=0))

    return _record(out, (m, v), rule)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of identical shape."""
    if a.shape != b.shape:
        raise DimensionError(f"hadamard: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def rule(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _record(out, (a, b), rule)


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a [v,n] matrix by integer id; rows may repeat.

    Equivalent to one-hot selection, so the backward rule scatter-adds the
    gradient of each output row back into its source row.
    """
    if table.data.ndim != 2:
        raise DimensionError(f"take_rows: table must be 2-D, got shape {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"take_rows: ids must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"take_rows: id out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[idx])

    def rule(g: np.ndarray) -> None:
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        _accumulate(table, buf)

    return _record(out, (table,), rule)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    i, f, o, g = np.split(gates, 4, axis=1)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return o * tanh_c, c, gates, tanh_c


def lstm_sequence(x0: Tensor, xs: Tensor, w_x: Tensor, w_h: Tensor, b_gates: Tensor) -> Tensor:
    """A teacher-forced LSTM run from the zero state, as one op.

    Step 0 reads ``x0`` [B,E]; steps 1..T read the time-major rows of
    ``xs`` [T*B,E] (rows t*B..(t+1)*B are step t+1). Returns the hidden
    rows of steps 1..T, [T*B,H], in the same order. The input projection
    of every step is one matmul; the backward rule is backpropagation
    through time written out by hand, and forms each weight gradient with
    one matmul over all steps.
    """
    if x0.data.ndim != 2 or xs.data.ndim != 2 or xs.shape[1] != x0.shape[1]:
        raise DimensionError(f"lstm_sequence: inputs {x0.shape} and {xs.shape} do not stack")
    batch, embed = x0.shape
    hidden = w_h.shape[0]
    if (
        not batch
        or xs.shape[0] % batch
        or w_x.shape != (embed, 4 * hidden)
        or w_h.shape != (hidden, 4 * hidden)
        or b_gates.shape != (4 * hidden,)
    ):
        raise DimensionError(
            f"lstm_sequence: shapes x0 {x0.shape}, xs {xs.shape}, w_x {w_x.shape}, "
            f"w_h {w_h.shape}, b_gates {b_gates.shape} do not fit"
        )
    steps = xs.shape[0] // batch + 1
    x = np.concatenate((x0.data, xs.data))
    zx = x @ w_x.data
    hs = np.empty((steps * batch, hidden))  # hidden rows, time-major
    cs = np.empty((steps * batch, hidden))
    acts = []
    h = c = np.zeros((batch, hidden))
    for s in range(steps):
        rows = slice(s * batch, (s + 1) * batch)
        z = zx[rows] + h @ w_h.data if s else zx[rows].copy()
        z += b_gates.data
        h, c, gates, tanh_c = lstm_cell(z, c)
        hs[rows], cs[rows] = h, c
        acts.append((gates, tanh_c))
    out = Tensor(hs[batch:])

    def rule(g: np.ndarray) -> None:
        dz = np.empty_like(zx)
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for s in range(steps - 1, -1, -1):
            rows = slice(s * batch, (s + 1) * batch)
            if s:
                dh += g[(s - 1) * batch : s * batch]
            gates, tanh_c = acts[s]
            i, f, o, cand = np.split(gates, 4, axis=1)
            dc += dh * o * (1.0 - tanh_c * tanh_c)
            c_prev = cs[(s - 1) * batch : s * batch] if s else 0.0
            d = dz[rows]
            d[:, :hidden] = dc * cand * i * (1.0 - i)
            d[:, hidden : 2 * hidden] = dc * c_prev * f * (1.0 - f)
            d[:, 2 * hidden : 3 * hidden] = dh * tanh_c * o * (1.0 - o)
            d[:, 3 * hidden :] = dc * i * (1.0 - cand * cand)
            if s:
                dh = d @ w_h.data.T
                dc = dc * f
        _accumulate(w_x, x.T @ dz)
        _accumulate(w_h, hs[:-batch].T @ dz[batch:])
        _accumulate(b_gates, dz.sum(axis=0))
        dx = dz @ w_x.data.T
        _accumulate(x0, dx[:batch])
        _accumulate(xs, dx[batch:])

    return _record(out, (x0, xs, w_x, w_h, b_gates), rule)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(x.data.sum())

    def rule(g: np.ndarray) -> None:
        _accumulate(x, np.full(x.shape, float(g)))

    return _record(out, (x,), rule)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(factor)
    out = Tensor(x.data * c)

    def rule(g: np.ndarray) -> None:
        _accumulate(x, g * c)

    return _record(out, (x,), rule)


def softmax(z: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax along the last axis (plain ndarray helper)."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log of softmax along the last axis, computed with max subtraction."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Per-row softmax cross-entropy of [r,n] logits against r targets."""
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy_rows: logits must be 2-D, got shape {logits.shape}")
    idx = np.asarray(targets, dtype=np.int64)
    if idx.shape != (logits.shape[0],):
        raise DimensionError(
            f"cross_entropy_rows: expected {logits.shape[0]} targets, got shape {idx.shape}"
        )
    if not np.isfinite(logits.data).all():
        raise NonFiniteError("cross_entropy_rows: logits must be finite")
    if idx.size and (idx.min() < 0 or idx.max() >= logits.shape[1]):
        raise IndexError(f"cross_entropy_rows: target out of range for {logits.shape[1]} classes")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(idx.size)
    out = Tensor(lse - shifted[rows, idx])

    def rule(g: np.ndarray) -> None:
        p = softmax(logits.data)
        p[rows, idx] -= 1.0
        _accumulate(logits, g[:, None] * p)

    return _record(out, (logits,), rule)


def gradient_check(f, inputs: Sequence[Tensor], h: float = 1e-5) -> float:
    """Worst relative disagreement between tape and finite-difference grads.

    ``f`` is called with ``inputs`` and must return a scalar tensor. The
    finite-difference side perturbs one coordinate at a time with central
    differences of step ``h``; the relative error of a coordinate is
    |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|) and the maximum over all
    coordinates of all inputs is returned.
    """
    if h <= 0:
        raise ValueError("gradient_check: h must be positive")
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    loss = f(*inputs)
    if loss.data.ndim != 0:
        raise ValueError(f"gradient_check: f must return a scalar, got shape {loss.shape}")
    backward(loss)
    worst = 0.0
    with no_grad():
        for t in inputs:
            g_ad = np.zeros_like(t.data) if t.grad is None else t.grad
            flat = t.data.reshape(-1)
            flat_ad = g_ad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                f_plus = float(f(*inputs).data)
                flat[j] = orig - h
                f_minus = float(f(*inputs).data)
                flat[j] = orig
                g_fd = (f_plus - f_minus) / (2.0 * h)
                denom = max(1e-12, abs(flat_ad[j]) + abs(g_fd))
                worst = max(worst, abs(flat_ad[j] - g_fd) / denom)
    return worst
