"""Reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable operation appends one record to the innermost active
``Tape``; ``backward`` replays those records in reverse order, accumulating
gradients additively into the ``grad`` slot of every tensor that requires
them.  Without an active tape, operations run forward-only (inference).
A record may have several outputs: a tree induction returns the ``h`` and
``c`` of every node it merges.  Its backward function then receives one
gradient per output, ``None`` for an output that nothing used.

Weight gradients are summed with one matrix product per weight: every
record that multiplies a weight matrix by vectors (``matmul`` on a vector
and the model's fused ops) hands back the weight's gradient as a pair of
factors whose product is a sum of outer products.  On a plain ``Tape``,
``backward`` adds all of one tensor's pairs just before that tensor's own
record is replayed or at the end of the pass.  On a ``Tape(batch)`` the
pairs of the tensors that no record on the tape made (the parameters) are
handed to the ``GradientBatch`` instead, which holds them across the
examples of a batch until ``flush`` sums each parameter's pairs with one
matrix product.  An embedding lookup's gradient goes into its rows only.

Deliberately small: no broadcasting beyond matrix-vector products and no
higher-order derivatives.  This module holds the engine, the elementary
ops of the classifier head and the losses (``add``, ``sub``, ``mul``,
``absolute``, ``matmul``, ``relu``, ``concat``, ``dot``, ``softmax`` and
``cross_entropy``), a sentence's embedding lookup ``take_rows``, the
softmax kernels ``stable_softmax`` and ``_softmax_grad``, ``glorot`` and
``finite_difference_check``.  Each of the model's fused ops, one record
with a hand-written backward pass built on ``_emit``, lives in the module
of its only caller: ``gru_sequence``, ``leaf_states``, ``tree_induction``
and ``st_gumbel_select``'s ``gumbel_softmax`` in ``parser``,
``attention_pool`` in ``attention``.  All arithmetic is 64-bit so that
finite-difference checks are decisive.
"""

from __future__ import annotations

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
    gradients are immutable by convention and safe to share.  A frozen
    embedding table is the one array of the model held outside a tensor,
    float32 when it is read from a file or a checkpoint; ``take_rows``
    upcasts the rows it gathers from it.
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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Record:
    __slots__ = ("name", "inputs", "outputs", "grad_fn")

    def __init__(self, name, inputs, outputs, grad_fn):
        self.name = name
        self.inputs = inputs
        self.outputs = outputs  # a tuple, of one tensor for most ops
        # grad_fn(output_grad) -> one gradient (array, marker or None) per
        # input; a record with several outputs gets a tuple of their
        # gradients, None for an output that nothing used
        self.grad_fn = grad_fn


class _Outer:
    """The gradient ``left @ right``, a sum of outer products of the columns
    of ``left`` (m, r) with the rows of ``right`` (r, n), left unformed
    until ``backward`` sums it with the other such gradients of its tensor."""

    __slots__ = ("left", "right")

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left = left
        self.right = right


class _Rows:
    """A matrix gradient that is zero outside the rows ``index``: row
    ``index[j]`` gets ``rows[j]``, summed over a repeated index.  An int
    ``index`` with a vector ``rows`` names one row."""

    __slots__ = ("index", "rows")

    def __init__(self, index, rows: np.ndarray):
        self.index = index
        self.rows = rows


# the open tapes, innermost last
_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed operations; a single-threaded context.

    Each record holds one operation's inputs, its outputs (one or more
    tensors) and its backward function.  Every consumer of an output is
    recorded after the operation that made it, so walking the records
    backwards is a valid reverse topological order.  With a ``batch``,
    ``backward`` leaves the parameters' deferred weight gradients in it, to
    be summed by ``batch.flush()``.
    """

    def __init__(self, batch: GradientBatch | None = None):
        self._records: list[_Record] = []
        self.batch = batch

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self, "tapes closed out of order"

    def __len__(self) -> int:
        return len(self._records)


def _emit(name: str, inputs: Sequence[Tensor], out_data, grad_fn: Callable,
          views_of: Sequence[np.ndarray] | None = None):
    """Wrap an operation's result in tensors and record it on the innermost
    tape when some input requires a gradient.

    ``out_data`` is one array, which gives one tensor, or a tuple of arrays,
    which gives a tuple of tensors from a single record.  The outputs are
    checked for non-finite values; when they are all views into the arrays
    ``views_of``, those are checked instead, once each (none, for an op
    that checked its values itself).
    """
    multi = type(out_data) is tuple
    arrays = out_data if multi else (out_data,)
    for arr in arrays if views_of is None else views_of:
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"{name}: produced non-finite values")
    track = bool(_TAPES) and any(t.requires_grad for t in inputs)
    outs = []
    for arr in arrays:
        out = Tensor.__new__(Tensor)
        out.data = arr
        out.requires_grad = track
        out.grad = None
        outs.append(out)
    outs = tuple(outs)
    if track:
        _TAPES[-1]._records.append(_Record(name, tuple(inputs), outs, grad_fn))
    return outs if multi else outs[0]


def backward(tape: Tape, loss: Tensor | None) -> None:
    """Populate ``grad`` for every tensor reachable from ``loss``.

    Gradients accumulate additively, both across multiple uses of one
    tensor inside the tape and across repeated backward calls.  If the tape
    has a ``GradientBatch``, the deferred weight gradients of tensors that
    no record on the tape made stay in it until its ``flush``.  With
    ``loss`` None the tape is replayed from the gradients its records'
    outputs already hold, which the backward passes of the tapes that read
    those outputs have left there.
    """
    if loss is not None:
        if loss.shape != ():
            raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
        if not any(out is loss for rec in tape._records for out in rec.outputs):
            raise ValueError("backward: loss was not produced on this tape")
        loss.grad = (loss.grad if loss.grad is not None else np.zeros(())) + 1.0
    # id(tensor) -> (tensor, lefts, rights) of its not yet summed _Outer gradients
    pending: dict[int, tuple[Tensor, list, list]] = {}
    for rec in reversed(tape._records):
        outs = rec.outputs
        for out in outs:
            entry = pending.pop(id(out), None)
            if entry is not None:  # out was made on the tape and used in a matvec
                _flush_outers(*entry)
        if len(outs) == 1:
            out_grad = outs[0].grad
            if out_grad is None:
                continue
        else:
            out_grad = tuple(out.grad for out in outs)
            if all(g is None for g in out_grad):
                continue
        grads = rec.grad_fn(out_grad)
        for tensor, g in zip(rec.inputs, grads):
            if g is None or not tensor.requires_grad:
                continue
            kind = type(g)
            if kind is _Outer:
                entry = pending.get(id(tensor))
                if entry is None:
                    pending[id(tensor)] = (tensor, [g.left], [g.right])
                else:
                    entry[1].append(g.left)
                    entry[2].append(g.right)
            elif kind is _Rows:
                if tensor.grad is None:
                    tensor.grad = np.zeros_like(tensor.data)
                np.add.at(tensor.grad, g.index, g.rows)
            elif tensor.grad is None:
                # copy: grad_fn may hand back a shared or reused array
                tensor.grad = np.array(g, dtype=np.float64)
            else:
                tensor.grad += g
    # what is left belongs to tensors made before the tape: the parameters
    if tape.batch is None:
        for entry in pending.values():
            _flush_outers(*entry)
    else:
        for entry in pending.values():
            tape.batch.hold(*entry)


def _flush_outers(tensor: Tensor, lefts: list, rights: list) -> None:
    """Add the sum of ``left @ right`` over the pairs to ``tensor.grad``."""
    total = np.concatenate(lefts, axis=1) @ np.concatenate(rights)
    if tensor.grad is None:
        tensor.grad = total
    else:
        tensor.grad += total


class GradientBatch:
    """The deferred weight gradients of several backward passes, held until
    ``flush`` sums each tensor's with one matrix product.

    Pass one to every ``Tape`` of a batch, then call ``flush`` before the
    gradients are read.  A tensor's gradient is then the same sum as with
    one flush per backward pass, in another order.
    """

    def __init__(self):
        # id(tensor) -> (tensor, lefts, rights), as backward's pending
        self._held: dict[int, tuple[Tensor, list, list]] = {}

    def hold(self, tensor: Tensor, lefts: list, rights: list) -> None:
        entry = self._held.get(id(tensor))
        if entry is None:
            self._held[id(tensor)] = (tensor, lefts, rights)
        else:
            entry[1].extend(lefts)
            entry[2].extend(rights)

    def flush(self) -> None:
        """Add every held sum to its tensor's ``grad`` and forget it."""
        for entry in self._held.values():
            _flush_outers(*entry)
        self._held.clear()


def _check_same_shape(name: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} differ")


def _check_vector(name: str, t: Tensor) -> None:
    if t.data.ndim != 1:
        raise ShapeError(f"{name}: expected a vector, got shape {t.shape}")


def _check_same_vectors(name: str, vectors: Sequence[Tensor]) -> None:
    first = vectors[0].data.shape
    if len(first) != 1 or any(v.data.shape != first for v in vectors):
        raise ShapeError(f"{name}: expected vectors of one length, got shapes "
                         f"{[v.shape for v in vectors]}")


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
        return _emit("matmul", (a, b), a.data @ b.data, lambda g: (
            _Outer(g[:, None], b.data[None]) if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None))
    if b.data.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
        return _emit("matmul", (a, b), a.data @ b.data, lambda g: (
            g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None))
    raise ShapeError(f"matmul: right operand must be a vector or matrix, got {b.shape}")


def relu(x: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    return _emit("relu", (x,), np.maximum(x.data, 0.0),
                 lambda g: (g * (x.data > 0),))


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of a vector of finite values, computed with max-subtraction."""
    shifted = np.exp(x - x.max())
    return shifted / shifted.sum()


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a softmax whose output is ``out``."""
    return out * (g - np.dot(g, out))


def softmax(x: Tensor) -> Tensor:
    """Softmax over a vector, computed with max-subtraction."""
    _check_vector("softmax", x)
    out = stable_softmax(x.data)
    return _emit("softmax", (x,), out, lambda g: (_softmax_grad(out, g),))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate vectors; scalar tensors count as length-1 vectors."""
    if not parts:
        raise ShapeError("concat: empty input list")
    parts = tuple(parts)  # the caller may reuse its list after this returns
    sizes = []
    for t in parts:
        if t.data.ndim > 1:
            raise ShapeError(f"concat: expected vectors or scalars, got shape {t.shape}")
        sizes.append(t.data.size)
    out = np.concatenate([t.data.reshape(-1) for t in parts])

    def grad_fn(g):
        grads, pos = [], 0
        for t, size in zip(parts, sizes):
            piece = g[pos:pos + size]
            grads.append(piece.reshape(t.data.shape))
            pos += size
        return tuple(grads)

    return _emit("concat", parts, out, grad_fn)


def dot(a: Tensor, b: Tensor) -> Tensor:
    _check_vector("dot", a)
    _check_same_shape("dot", a, b)
    return _emit("dot", (a, b), np.array(np.dot(a.data, b.data)),
                 lambda g: (g * b.data, g * a.data))


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


def take_rows(matrix: Tensor | np.ndarray, indices: Sequence[int]) -> Tensor:
    """The rows ``indices`` of a matrix as one (n, D) matrix, a sentence's
    embedding lookup; a repeated index gets the sum of its rows' gradients.
    A plain array, a frozen table whose values were checked when it was
    made, gives its rows as float64, an exact upcast from float32, and
    records nothing."""
    frozen = not isinstance(matrix, Tensor)
    table = matrix if frozen else matrix.data
    if table.ndim != 2:
        raise ShapeError(f"take_rows: expected a matrix, got shape {table.shape}")
    index = np.asarray(indices, dtype=np.intp).reshape(-1)
    if len(index) and not (0 <= index.min() and index.max() < table.shape[0]):
        raise ShapeError(f"take_rows: rows {list(indices)} outside shape {table.shape}")
    out = np.asarray(table[index], dtype=np.float64)  # a copy

    return _emit("take_rows", () if frozen else (matrix,), out,
                 lambda g: (_Rows(index, g),), views_of=() if frozen else None)


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
