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
and the fused ops below) hands back the weight's gradient as a pair of
factors whose product is a sum of outer products.  On a plain ``Tape``,
``backward`` adds all of one tensor's pairs just before that tensor's own
record is replayed or at the end of the pass.  On a ``Tape(batch)`` the
pairs of the tensors that no record on the tape made (the parameters) are
handed to the ``GradientBatch`` instead, which holds them across the
examples of a batch until ``flush`` sums each parameter's pairs with one
matrix product.  An embedding lookup's gradient goes into its rows only.

Deliberately small: no broadcasting beyond matrix-vector products and no
higher-order derivatives.  The catalogue is the elementary ops that the
classifier head and the losses use (``add``, ``sub``, ``mul``,
``absolute``, ``matmul``, ``relu``, ``concat``, ``dot``, ``softmax`` and
``cross_entropy``) and six fused ones with hand-written backward passes:

- ``take_rows``, a sentence's embedding rows as one (n, D) matrix;
- ``gru_sequence``, one GRU direction over a whole sentence;
- ``leaf_states``, the affine map that ends both leaf transforms, which
  cuts every position's ``weight @ x + bias`` into its ``h`` and ``c``;
- ``gumbel_softmax``, the straight-through Gumbel-softmax selection;
- ``attention_pool``, attention pooling over all nodes of a tree;
- ``tree_induction`` (emitted by ``parser.induce_tree``), a whole
  bottom-up induction, whose one record replaces the Tree-LSTM cell,
  softmax, Gumbel and merge records of every layer.

So in training a sentence records three ops for the RNN leaf (two GRU
directions and ``leaf_states``) or one for the affine leaf, one more for
the lookup when the embeddings are fine-tuned, one for its induction and
one for its attention.  Each fused forward does the arithmetic of the
chain of elementary ops it replaces, which the tests keep as its oracle,
but where that chain takes one matrix-vector product per row (per pair,
word, node or step) it takes one matrix product per call, so its values
match the chain's to the last bits, not bit for bit; the same call on
the same shapes always gives the same bits.  The fused ops share their
arithmetic with ``softmax`` and ``gumbel_softmax`` through the array
kernels ``stable_softmax`` and ``gumbel_relaxation``; ``TreeLstmCells``,
the Tree-LSTM cell over a batch of child pairs, runs only inside a tree
induction.  All arithmetic is 64-bit so that finite-difference checks are
decisive.
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


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` for every tensor reachable from ``loss``.

    Gradients accumulate additively, both across multiple uses of one
    tensor inside the tape and across repeated backward calls.  If the tape
    has a ``GradientBatch``, the deferred weight gradients of tensors that
    no record on the tape made stay in it until its ``flush``.
    """
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


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp over -|x| never overflows; negative inputs use 1 - sigma(|x|)
    inv = 1.0 / (1.0 + np.exp(-np.abs(x)))
    return np.where(x >= 0, inv, 1.0 - inv)


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


def gumbel_relaxation(probs: np.ndarray, noise: np.ndarray, temperature: float,
                      perturb_probs: bool = False) -> tuple[int, np.ndarray]:
    """The index and relaxed weights of a Gumbel-softmax draw from a vector
    of probabilities.

    The perturbed logits are ``(log(probs) + noise) * (1 / temperature)``,
    with ``probs`` itself in place of its log under ``perturb_probs``; the
    index is their argmax, ties to the lowest index, and the relaxed weights
    are their max-shifted softmax.  The arithmetic is the elementary ops'
    (``log``, ``add``, ``mul``, ``softmax``) in their order, and a
    non-finite logit raises where one of them would, for example for a
    probability of exactly 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logits = ((probs if perturb_probs else np.log(probs)) + noise) * (1.0 / temperature)
    if not np.isfinite(logits).all():
        raise NonFiniteError("gumbel_softmax: perturbed logits have non-finite values")
    return int(logits.argmax()), stable_softmax(logits)


def _gumbel_relaxation_grad(g: np.ndarray, relaxed: np.ndarray, probs: np.ndarray,
                            temperature: float, perturb_probs: bool) -> np.ndarray:
    """Gradient at ``probs`` of the relaxed weights of ``gumbel_relaxation``."""
    g_logits = _softmax_grad(relaxed, g) * (1.0 / temperature)
    return g_logits if perturb_probs else g_logits / probs


def gumbel_softmax(probs: Tensor, noise: np.ndarray, temperature: float,
                   hard: bool, perturb_probs: bool = False) -> tuple[int, Tensor]:
    """Gumbel-softmax selection from a vector of probabilities as one
    record; returns the argmax index and the selection weights.

    The index and the relaxed weights are ``gumbel_relaxation``'s.  The
    weights are the relaxed ones, or under ``hard`` the exact one-hot at the
    index.  The backward pass is the relaxation's gradient in both cases, so
    hard weights pass the relaxed gradient straight through (Jang et al.
    2017).
    """
    _check_vector("gumbel_softmax", probs)
    k = probs.shape[0]
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (k,):
        raise ShapeError(f"gumbel_softmax: noise of shape {noise.shape} for "
                         f"probabilities of shape {probs.shape}")
    p = probs.data
    index, relaxed = gumbel_relaxation(p, noise, temperature, perturb_probs)
    if hard:
        out = np.zeros(k)
        out[index] = 1.0
    else:
        out = relaxed

    def grad_fn(g):
        return (_gumbel_relaxation_grad(g, relaxed, p, temperature, perturb_probs),)

    return index, _emit("gumbel_softmax", (probs,), out, grad_fn)


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


class TreeLstmCells:
    """The binary Tree-LSTM cell (Tai et al. 2015) over k child pairs, on
    arrays: the parents' ``h``, ``c`` and validity logits ``query . h``,
    and what ``backward`` needs.

    Row j of ``h_left``, ``h_right``, ``c_left`` and ``c_right`` (each
    (k, H)) holds the children of pair j.  ``weight`` is (5H, 2H) and
    ``bias`` (5H,), with gate blocks [candidate; input; forget-left;
    forget-right; output] applied to ``[h_left; h_right]``.  One matrix
    product takes all k pre-activations and one more all k logits, so a
    pair's values match those of the elementary ops to the last bits, and
    those bits may depend on k.  The pre-activation is checked for
    non-finite values, because the saturating gates would otherwise hide an
    overflow, and so are the results.
    """

    __slots__ = ("query", "pairs", "mem_l", "mem_r", "candidate", "gates", "tanh_c",
                 "h", "c", "logits")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, query: np.ndarray,
                 h_left: np.ndarray, h_right: np.ndarray, c_left: np.ndarray,
                 c_right: np.ndarray):
        k, hidden = h_left.shape
        self.query, self.mem_l, self.mem_r = query, c_left, c_right
        self.pairs = pairs = np.empty((k, 2 * hidden))  # row j: [h_left[j]; h_right[j]]
        pairs[:, :hidden] = h_left
        pairs[:, hidden:] = h_right
        pre = pairs @ weight.T + bias
        if not np.isfinite(pre).all():
            raise NonFiniteError("tree_induction: pre-activation has non-finite values")
        blocks = pre.reshape(k, 5, hidden).transpose(1, 0, 2).copy()  # (5, k, H)
        self.candidate = np.tanh(blocks[0])
        self.gates = _logistic(blocks[1:])
        gate_in, forget_l, forget_r, gate_out = self.gates
        self.c = np.add(self.candidate * gate_in, c_left * forget_l + c_right * forget_r)
        self.tanh_c = np.tanh(self.c)
        self.h = self.tanh_c * gate_out
        self.logits = self.h @ query
        if not (np.isfinite(self.c).all() and np.isfinite(self.logits).all()):
            raise NonFiniteError("tree_induction: produced non-finite values")

    def backward(self, g_h: np.ndarray, g_c: np.ndarray,
                 g_logit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (k, 5H) pre-activation gradient and the gradients of
        ``c_left`` and ``c_right``, from the gradients of the parents' h, c
        and logits; ``g_h`` and ``g_c`` are updated in place.  The weight's
        gradient is ``g_pre.T @ pairs``, the bias's ``g_pre.sum(0)``, the
        query's ``g_logit @ h`` and that of ``[h_left; h_right]``
        ``g_pre @ weight``."""
        gate_in, forget_l, forget_r, gate_out = self.gates
        candidate, tanh_c = self.candidate, self.tanh_c
        k, hidden = g_h.shape
        g_h += g_logit[:, None] * self.query
        g_c += g_h * gate_out * (1.0 - tanh_c * tanh_c)
        g_pre = np.empty((5, k, hidden))
        g_pre[0] = g_c * gate_in * (1.0 - candidate * candidate)
        g_pre[1:] = g_c * candidate, g_c * self.mem_l, g_c * self.mem_r, g_h * tanh_c
        g_pre[1:] *= self.gates * (1.0 - self.gates)
        return g_pre.transpose(1, 0, 2).reshape(k, 5 * hidden), g_c * forget_l, g_c * forget_r


def gru_sequence(weights: Sequence[Tensor], inputs: Tensor, reverse: bool = False) -> Tensor:
    """One GRU direction over a whole sentence as one record; returns the
    (n, H) states in input order.

    ``weights`` are the nine tensors [update_in, update_state, update_bias,
    reset_in, reset_state, reset_bias, cand_in, cand_state, cand_bias]: per
    gate an input map (H, D), a state map (H, H) and a bias (H,).  The
    state starts at zero and runs over the rows of the (n, D) ``inputs``
    from the first to the last, or from the last to the first if
    ``reverse``.  The input half of the pre-activations does not depend on
    the state, so it is one matrix product per gate over all steps; only
    the state's matrix-vector products stay in the step loop.  The values
    match those of the elementary ops to the last bits.  Every
    pre-activation is checked for non-finite values, because the saturating
    gates would otherwise hide an overflow.  The backward pass is
    backpropagation through time; it hands back each weight matrix's
    gradient as one deferred matrix product (an ``_Outer``).
    """
    if len(weights) != 9:
        raise ShapeError(f"gru_sequence: expected 9 weight tensors, got {len(weights)}")
    if inputs.data.ndim != 2 or not inputs.shape[0]:
        raise ShapeError(f"gru_sequence: expected a nonempty (n, D) matrix of inputs, "
                         f"got shape {inputs.shape}")
    weights = tuple(weights)
    u_in, u_state, u_bias, r_in, r_state, r_bias, c_in, c_state, c_bias = (
        w.data for w in weights)
    x_all = inputs.data
    n, d_in = x_all.shape
    hidden = u_bias.shape[0]
    if any(w.shape != shape for w, shape in zip(
            weights, [(hidden, d_in), (hidden, hidden), (hidden,)] * 3)):
        raise ShapeError(f"gru_sequence: weights {[w.shape for w in weights]} do not "
                         f"fit inputs of size {d_in}")
    order = range(n - 1, -1, -1) if reverse else range(n)
    # per position, in input order: the state the step reads, the three
    # pre-activations, the gates and candidate, and the state it writes
    prev, fresh, states = (np.empty((n, hidden)) for _ in range(3))
    pre, gates = np.empty((n, 3, hidden)), np.empty((n, 2, hidden))
    # the input half of every pre-activation: one product per gate
    in_u, in_r, in_c = (x_all @ w.T + b for w, b in ((u_in, u_bias), (r_in, r_bias),
                                                      (c_in, c_bias)))
    state = np.zeros(hidden)
    for t in order:
        pre_u, pre_r, pre_c = pre[t]
        np.add(in_u[t], u_state @ state, out=pre_u)
        np.add(in_r[t], r_state @ state, out=pre_r)
        gates[t] = _logistic(pre[t, :2])
        u, r = gates[t]
        np.add(in_c[t], c_state @ (r * state), out=pre_c)
        f = np.tanh(pre_c)
        prev[t], fresh[t] = state, f
        state = (1.0 - u) * f + u * state
        states[t] = state
    update, reset = gates[:, 0], gates[:, 1]
    if not np.isfinite(pre).all():
        raise NonFiniteError("gru_sequence: pre-activation has non-finite values")

    def grad_fn(g):
        # the factors of the pre-activation gradients that need no carry
        d_u = (prev - fresh) * update * (1.0 - update)
        d_r = prev * reset * (1.0 - reset)
        d_c = (1.0 - update) * (1.0 - fresh * fresh)
        g_u, g_r, g_c = (np.empty((n, hidden)) for _ in range(3))
        carry = np.zeros(hidden)
        for t in reversed(order):
            g_s = g[t] + carry
            g_u[t] = g_s * d_u[t]
            g_c[t] = g_s * d_c[t]
            g_reset_state = c_state.T @ g_c[t]
            g_r[t] = g_reset_state * d_r[t]
            carry = (g_s * update[t] + g_reset_state * reset[t]
                     + u_state.T @ g_u[t] + r_state.T @ g_r[t])
        grads = []
        for g_pre, state_in in ((g_u, prev), (g_r, prev), (g_c, reset * prev)):
            grads += [_Outer(g_pre.T, x_all), _Outer(g_pre.T, state_in), g_pre.sum(0)]
        grads.append(g_u @ u_in + g_r @ r_in + g_c @ c_in if inputs.requires_grad else None)
        return tuple(grads)

    return _emit("gru_sequence", (*weights, inputs), states, grad_fn)


def leaf_states(weight: Tensor, bias: Tensor,
                parts: Sequence[Tensor]) -> tuple[tuple[Tensor, ...], tuple[Tensor, ...]]:
    """The affine map that ends a leaf transform, as one record; returns
    the n leaves' ``h`` and their ``c``.

    ``parts`` are (n, D_k) matrices; row i of the (n, 2H) result is
    ``weight @ [row i of every part] + bias`` with ``weight`` (2H, sum D_k)
    and ``bias`` (2H,), and its halves are leaf i's ``h`` and ``c``.  One
    matrix product maps all n rows, so the values match those of ``concat``,
    ``matmul``, ``add`` and ``split`` to the last bits.  The backward pass hands back the weight's gradient as
    one deferred matrix product (an ``_Outer``) and takes one matrix
    product for the parts' gradients.
    """
    parts = tuple(parts)
    if (not parts or any(p.data.ndim != 2 for p in parts)
            or len({p.shape[0] for p in parts}) != 1 or not parts[0].shape[0]):
        raise ShapeError(f"leaf_states: expected nonempty (n, D) matrices with one n, got "
                         f"shapes {[p.shape for p in parts]}")
    n, widths = parts[0].shape[0], [p.shape[1] for p in parts]
    if (weight.data.ndim != 2 or weight.shape[0] % 2 or weight.shape[1] != sum(widths)
            or bias.shape != weight.shape[:1]):
        raise ShapeError(f"leaf_states: weight {weight.shape} and bias {bias.shape} do not "
                         f"fit parts of widths {widths}")
    hidden = weight.shape[0] // 2
    rows = np.concatenate([p.data for p in parts], axis=1)  # row i: [part rows i]
    packed = rows @ weight.data.T + bias.data

    def grad_fn(grads):
        g = np.zeros((n, 2 * hidden))
        for i in range(n):
            g_h, g_c = grads[i], grads[n + i]
            if g_h is not None:
                g[i, :hidden] = g_h
            if g_c is not None:
                g[i, hidden:] = g_c
        out = [_Outer(g.T, rows), g.sum(axis=0)]
        if any(p.requires_grad for p in parts):
            g_rows = g @ weight.data
            out += np.split(g_rows, np.cumsum(widths)[:-1], axis=1)
        else:
            out += [None] * len(parts)
        return tuple(out)

    outs = _emit("leaf_states", (weight, bias, *parts),
                 (*packed[:, :hidden], *packed[:, hidden:]), grad_fn, views_of=(packed,))
    return outs[:n], outs[n:]


def attention_pool(embed_weight: Tensor, score_weight: Tensor,
                   nodes: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """Attention pooling over node vectors as one record; returns the pooled
    vector and the attention weights.

    Node ``h_i`` (size H) is embedded as ``e_i = relu(embed_weight @ h_i)``
    with ``embed_weight`` (D, H) and scored ``score_weight @ e_i`` with
    ``score_weight`` (1, D).  The weights are the max-shifted softmax of the
    scores and the pooled vector is ``sum_i w_i h_i``.  One matrix product
    embeds all nodes and one more scores them, so the values match those of
    the elementary ops to the last bits.  The pre-activations are checked for non-finite values, because the
    ReLU would otherwise hide an overflow.  The backward pass hands back
    the embedding weight's gradient as one deferred matrix product (an
    ``_Outer``) and takes one matrix product for the nodes' gradients.
    """
    if not nodes:
        raise ShapeError("attention_pool: no nodes to pool")
    nodes = tuple(nodes)
    _check_same_vectors("attention_pool", nodes)
    w_embed, w_score = embed_weight.data, score_weight.data
    m, hidden = len(nodes), nodes[0].shape[0]
    if (w_embed.ndim != 2 or w_embed.shape[1] != hidden
            or w_score.shape != (1, w_embed.shape[0])):
        raise ShapeError(f"attention_pool: weights {embed_weight.shape} and "
                         f"{score_weight.shape} do not fit nodes of size {hidden}")
    stacked = np.array([h.data for h in nodes])
    pre = stacked @ w_embed.T
    if not np.isfinite(pre).all():
        raise NonFiniteError("attention_pool: pre-activation has non-finite values")
    embedded = np.maximum(pre, 0.0)
    logits = embedded @ w_score[0]
    if not np.isfinite(logits).all():
        raise NonFiniteError("attention_pool: scores have non-finite values")
    weights = stable_softmax(logits)
    sentence = weights @ stacked

    def grad_fn(grads):
        g_sentence, g_weights = grads
        g_w = np.zeros(m) if g_sentence is None else stacked @ g_sentence
        if g_weights is not None:
            g_w += g_weights
        g_logits = _softmax_grad(weights, g_w)
        g_pre = g_logits[:, None] * w_score
        g_pre *= pre > 0
        out = [_Outer(g_pre.T, stacked), g_logits[None] @ embedded]
        if any(h.requires_grad for h in nodes):
            g_nodes = g_pre @ w_embed
            if g_sentence is not None:
                g_nodes += weights[:, None] * g_sentence
            out += list(g_nodes)
        else:
            out += [None] * m
        return tuple(out)

    return _emit("attention_pool", (embed_weight, score_weight, *nodes),
                 (sentence, weights), grad_fn)


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


def take_rows(matrix: Tensor, indices: Sequence[int]) -> Tensor:
    """The rows ``indices`` of a matrix as one (n, D) matrix, a sentence's
    embedding lookup; a repeated index gets the sum of its rows' gradients."""
    if matrix.data.ndim != 2:
        raise ShapeError(f"take_rows: expected a matrix, got shape {matrix.shape}")
    index = np.asarray(indices, dtype=np.intp).reshape(-1)
    if len(index) and not (0 <= index.min() and index.max() < matrix.shape[0]):
        raise ShapeError(f"take_rows: rows {list(indices)} outside shape {matrix.shape}")
    out = matrix.data[index]  # a copy

    return _emit("take_rows", (matrix,), out, lambda g: (_Rows(index, g),))


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
