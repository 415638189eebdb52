"""Reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable operation appends one record to the innermost active
``Tape``; ``backward`` replays those records in reverse order, accumulating
gradients additively into the ``grad`` slot of every tensor that requires
them.  Without an active tape, operations run forward-only (inference).

Deliberately small: no broadcasting beyond matrix-vector products, no
fusion, no higher-order derivatives.  All arithmetic is 64-bit so that
finite-difference checks are decisive.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the attempted operation."""


class NonFiniteError(ArithmeticError):
    """A tensor ended up holding NaN or Inf, which is never legal."""


class Tensor:
    """A dense float64 array with an optional gradient slot.

    ``grad`` stays ``None`` until a backward pass deposits something into
    it; it always matches ``data`` in shape.  Tensors that never require
    gradients are immutable by convention and safe to share.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor constructed with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Record:
    __slots__ = ("name", "inputs", "output", "grad_fn")

    def __init__(self, name, inputs, output, grad_fn):
        self.name = name
        self.inputs = inputs
        self.output = output
        # grad_fn(output_grad) -> one gradient array (or None) per input
        self.grad_fn = grad_fn


_STATE = threading.local()


def _stack() -> list:
    stack = getattr(_STATE, "tapes", None)
    if stack is None:
        stack = []
        _STATE.tapes = stack
    return stack


class Tape:
    """Ordered record of executed operations; a single-threaded context.

    Inputs of an operation always precede it on the tape, so walking the
    records backwards is a valid reverse topological order.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack().pop()
        assert popped is self, "tapes closed out of order"

    def __len__(self) -> int:
        return len(self._records)


def _emit(name: str, inputs: Sequence[Tensor], out_data: np.ndarray,
          grad_fn: Callable) -> Tensor:
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"{name}: produced non-finite values")
    stack = _stack()
    track = bool(stack) and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = track
    out.grad = None
    if track:
        stack[-1]._records.append(_Record(name, tuple(inputs), out, grad_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` for every tensor reachable from ``loss``.

    Gradients accumulate additively, both across multiple uses of one
    tensor inside the tape and across repeated backward calls.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not any(rec.output is loss for rec in tape._records):
        raise ValueError("backward: loss was not produced on this tape")
    loss.grad = (loss.grad if loss.grad is not None else np.zeros(())) + 1.0
    for rec in reversed(tape._records):
        out_grad = rec.output.grad
        if out_grad is None:
            continue
        grads = rec.grad_fn(out_grad)
        for tensor, g in zip(rec.inputs, grads):
            if g is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                # copy: grad_fn may hand back a shared or reused array
                tensor.grad = np.array(g, dtype=np.float64)
            else:
                tensor.grad += g


def _check_same_shape(name: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} differ")


def _check_vector(name: str, t: Tensor) -> None:
    if t.data.ndim != 1:
        raise ShapeError(f"{name}: expected a vector, got shape {t.shape}")


# ---------------------------------------------------------------------------
# Operation catalog
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return _emit("add", (a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return _emit("sub", (a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    return _emit("mul", (a, b), a.data * b.data,
                 lambda g: (g * b.data, g * a.data))


def absolute(x: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    return _emit("abs", (x,), np.abs(x.data), lambda g: (g * np.sign(x.data),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-vector or matrix-matrix product; no other broadcasting."""
    if a.data.ndim != 2:
        raise ShapeError(f"matmul: left operand must be a matrix, got {a.shape}")
    if b.data.ndim == 1:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
        return _emit("matmul", (a, b), a.data @ b.data,
                     lambda g: (np.outer(g, b.data), a.data.T @ g))
    if b.data.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
        return _emit("matmul", (a, b), a.data @ b.data,
                     lambda g: (g @ b.data.T, a.data.T @ g))
    raise ShapeError(f"matmul: right operand must be a vector or matrix, got {b.shape}")


def sigmoid(x: Tensor) -> Tensor:
    # exp over -|x| never overflows; negative inputs use 1 - sigma(|x|)
    inv = 1.0 / (1.0 + np.exp(-np.abs(x.data)))
    out = np.where(x.data >= 0, inv, 1.0 - inv)
    return _emit("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit("tanh", (x,), out, lambda g: (g * (1.0 - out * out),))


def relu(x: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    return _emit("relu", (x,), np.maximum(x.data, 0.0),
                 lambda g: (g * (x.data > 0),))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(x.data)
    return _emit("exp", (x,), out, lambda g: (g * out,))


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)
    return _emit("log", (x,), out, lambda g: (g / x.data,))


def softmax(x: Tensor) -> Tensor:
    """Softmax over a vector, computed with max-subtraction."""
    _check_vector("softmax", x)
    shifted = np.exp(x.data - np.max(x.data))
    out = shifted / np.sum(shifted)

    def grad_fn(g):
        return (out * (g - np.dot(g, out)),)

    return _emit("softmax", (x,), out, grad_fn)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate vectors; scalar tensors count as length-1 vectors."""
    if not parts:
        raise ShapeError("concat: empty input list")
    sizes = []
    for t in parts:
        if t.data.ndim > 1:
            raise ShapeError(f"concat: expected vectors or scalars, got shape {t.shape}")
        sizes.append(t.data.size)
    out = np.concatenate([np.atleast_1d(t.data) for t in parts])

    def grad_fn(g):
        grads, pos = [], 0
        for t, size in zip(parts, sizes):
            piece = g[pos:pos + size]
            grads.append(piece.reshape(t.data.shape))
            pos += size
        return tuple(grads)

    return _emit("concat", tuple(parts), out, grad_fn)


def weighted_sum(vectors: Sequence[Tensor], weights: Tensor) -> Tensor:
    """Sum of same-length vectors, each scaled by one entry of ``weights``."""
    _check_vector("weighted_sum", weights)
    if len(vectors) != weights.shape[0]:
        raise ShapeError(
            f"weighted_sum: {len(vectors)} vectors but {weights.shape[0]} weights")
    for v in vectors:
        _check_same_shape("weighted_sum", v, vectors[0])
        _check_vector("weighted_sum", v)
    stacked = np.stack([v.data for v in vectors])
    out = weights.data @ stacked

    def grad_fn(g):
        grads = [w * g for w in weights.data]
        grads.append(stacked @ g)
        return tuple(grads)

    return _emit("weighted_sum", (*vectors, weights), out, grad_fn)


def dot(a: Tensor, b: Tensor) -> Tensor:
    _check_vector("dot", a)
    _check_same_shape("dot", a, b)
    return _emit("dot", (a, b), np.array(np.dot(a.data, b.data)),
                 lambda g: (g * b.data, g * a.data))


def mean(x: Tensor) -> Tensor:
    n = x.data.size
    return _emit("mean", (x,), np.array(np.mean(x.data)),
                 lambda g: (np.full_like(x.data, g / n),))


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Softmax cross-entropy of a logit vector against an integer label."""
    _check_vector("cross_entropy", logits)
    if not 0 <= label < logits.shape[0]:
        raise ShapeError(
            f"cross_entropy: label {label} outside logits of shape {logits.shape}")
    m = np.max(logits.data)
    lse = m + np.log(np.sum(np.exp(logits.data - m)))
    out = np.array(lse - logits.data[label])

    def grad_fn(g):
        p = np.exp(logits.data - lse)
        p[label] -= 1.0
        return (g * p,)

    return _emit("cross_entropy", (logits,), out, grad_fn)


def narrow(x: Tensor, start: int, length: int) -> Tensor:
    """Contiguous slice of a vector (used to split packed gate blocks)."""
    _check_vector("narrow", x)
    if start < 0 or length < 1 or start + length > x.shape[0]:
        raise ShapeError(f"narrow: [{start}:{start + length}] outside shape {x.shape}")
    out = x.data[start:start + length].copy()

    def grad_fn(g):
        full = np.zeros_like(x.data)
        full[start:start + length] = g
        return (full,)

    return _emit("narrow", (x,), out, grad_fn)


def take_row(matrix: Tensor, index: int) -> Tensor:
    """Row gather from a matrix (embedding lookup)."""
    if matrix.data.ndim != 2:
        raise ShapeError(f"take_row: expected a matrix, got shape {matrix.shape}")
    if not 0 <= index < matrix.shape[0]:
        raise ShapeError(f"take_row: row {index} outside shape {matrix.shape}")
    out = matrix.data[index].copy()

    def grad_fn(g):
        full = np.zeros_like(matrix.data)
        full[index] = g
        return (full,)

    return _emit("take_row", (matrix,), out, grad_fn)


def st_onehot(probs: Tensor, index: int) -> Tensor:
    """Straight-through one-hot: exact one-hot forward, identity backward.

    The forward value is built directly from zeros and a single one, so it
    is exactly one-hot; the backward pass behaves as if the output had been
    ``probs`` itself.
    """
    _check_vector("st_onehot", probs)
    if not 0 <= index < probs.shape[0]:
        raise ShapeError(f"st_onehot: index {index} outside shape {probs.shape}")
    out = np.zeros_like(probs.data)
    out[index] = 1.0
    return _emit("st_onehot", (probs,), out, lambda g: (g,))


# ---------------------------------------------------------------------------
# Initialization and verification helpers
# ---------------------------------------------------------------------------

def glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Uniform(-s, s) matrix with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-s, s, size=(rows, cols)), requires_grad=True)


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            step: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of ``f`` at ``x``
    and a central finite difference.

    ``f`` must map a tensor to a scalar tensor and be deterministic for a
    fixed input (freeze any noise sources before calling).  Relative error
    is ``|analytic - numeric| / max(1, |analytic|)`` per coordinate.
    """
    if step <= 0:
        raise ValueError("finite_difference_check: step must be positive")
    saved_flag, saved_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    try:
        with Tape() as tape:
            out = f(x)
            backward(tape, out)
        analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
        worst = 0.0
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(x).item()
            flat[i] = orig - step
            lo = f(x).item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            ref = analytic.reshape(-1)[i]
            worst = max(worst, abs(ref - numeric) / max(1.0, abs(ref)))
        return worst
    finally:
        x.requires_grad = saved_flag
        x.grad = saved_grad
