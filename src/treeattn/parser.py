"""Bottom-up latent tree induction.

A sentence enters as per-word states, and at every layer all adjacent
pairs are composed by a binary Tree-LSTM cell, scored against a trainable
query vector, and one candidate is selected to replace its pair.  During
training the selection is a straight-through Gumbel draw: the forward
value is a hard one-hot over candidates while the backward pass sees the
gradient of the temperature-scaled softmax relaxation, so the scoring
parameters keep receiving signal.  n leaves always produce exactly
2n - 1 node states.  One loop induces in every mode: it takes a group of
sentences layer by layer in lockstep, and a sentence alone is a group of
one; so does the GRU of the RNN leaf, step by step.

The fused ops of the leaf transforms (``gru_sequence``, ``leaf_states``)
and of the induction (``tree_induction``, and ``st_gumbel_select``'s
``gumbel_softmax``) live here with the Tree-LSTM cell and the Gumbel
relaxation they are built from, which all take one ``GumbelConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .tensor import (NonFiniteError, ShapeError, Tensor, _Outer, _check_same_vectors,
                     _check_vector, _emit, _softmax_grad, glorot, stable_softmax)
from .trees import BinaryTree

MODES = ("train", "infer", "soft")


@dataclass
class NodeState:
    """Hidden and memory vectors of one tree node; equal dimension."""

    h: Tensor
    c: Tensor


@dataclass
class CompositionParams:
    """Packed Tree-LSTM cell: weight (5H, 2H), bias (5H,).

    Gate order inside the packed block is [candidate; input; forget-left;
    forget-right; output].
    """

    weight: Tensor
    bias: Tensor


@dataclass
class LeafAffineParams:
    """Affine map from a word vector to packed (h, c): weight (2H, D), bias (2H,)."""

    weight: Tensor
    bias: Tensor


@dataclass
class GruParams:
    """One recurrent direction; per gate an input map (H, D), a state map
    (H, H), and a bias (H,)."""

    update_in: Tensor
    update_state: Tensor
    update_bias: Tensor
    reset_in: Tensor
    reset_state: Tensor
    reset_bias: Tensor
    cand_in: Tensor
    cand_state: Tensor
    cand_bias: Tensor


@dataclass
class LeafRnnParams:
    """Bidirectional GRU over the words, projected per position to (h, c)."""

    fwd: GruParams
    bwd: GruParams
    proj_weight: Tensor  # (2H, 2H)
    proj_bias: Tensor    # (2H,)


@dataclass(frozen=True)
class GumbelConfig:
    """Selection behaviour at each layer.

    ``train`` samples with Gumbel noise and emits hard one-hot weights with
    straight-through gradients; ``infer`` is a deterministic noiseless
    argmax with no gradient path; ``soft`` keeps the noisy softmax
    relaxation as the forward value, which makes the whole model smooth
    and is what gradient checks run under.

    ``perturb_probs`` adds the noise to the probabilities themselves
    instead of their logs (a non-standard variant kept for comparison).
    ``noise_per_layer`` redraws noise at every layer; when off, one vector
    drawn per sentence is reused across layers.
    """

    temperature: float = 1.0
    mode: str = "train"
    perturb_probs: bool = False
    noise_per_layer: bool = True

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def leaf_transform(words, params: LeafAffineParams | LeafRnnParams):
    """Turn a sentence's (n, D) word vectors into initial node states with
    the transform the type of ``params`` names ("affine" or "rnn").  Either
    ends in one ``leaf_states`` record per sentence, so the affine leaf
    records one op per sentence and the RNN leaf three.  Given an iterable
    of sentences (a group), it returns one list of states per sentence: the
    affine leaf maps them one at a time, and the RNN leaf's two
    ``gru_sequence`` records are those of the whole group."""
    if isinstance(words, Tensor):
        return _leaf_group([words], params)[0]
    return _leaf_group(words, params)


def _leaf_group(words, params) -> list[list[NodeState]]:
    """``leaf_transform`` of an iterable of sentences."""
    def checked(sentence: Tensor) -> Tensor:
        if sentence.data.ndim != 2:
            raise ShapeError(f"leaf_transform: expected an (n, D) matrix, "
                             f"got shape {sentence.shape}")
        if not sentence.shape[0]:
            raise ShapeError("leaf_transform: empty sentence")
        return sentence

    if isinstance(params, LeafAffineParams):
        return [leaf_states(params.weight, params.bias, [checked(sentence)])
                for sentence in words]
    if isinstance(params, LeafRnnParams):
        words = [checked(sentence) for sentence in words]
        forward = gru_sequence(params.fwd, words)
        backward = gru_sequence(params.bwd, words, reverse=True)
        return [leaf_states(params.proj_weight, params.proj_bias, [f, b])
                for f, b in zip(forward, backward)]
    raise TypeError(f"leaf_transform: no leaf transform takes {type(params).__name__}")


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 + 0.5 * tanh(x / 2), into ``out`` if given: the tanh form
    saturates to exactly 0 or 1 and never overflows or underflows."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def gru_sequence(params: GruParams, inputs: Tensor | list[Tensor],
                 reverse: bool = False) -> Tensor | list[Tensor]:
    """One GRU direction over a whole sentence as one record; returns the
    (n, H) states in input order.  Given a list of sentences (a group), it
    returns one such matrix per sentence, all from one record that steps
    every sentence still running together.

    ``params`` holds per gate an input map (H, D), a state map (H, H) and a
    bias (H,).  The state starts at zero and runs over the rows of each
    (n, D) ``inputs`` from the first to the last, or from the last to the
    first if ``reverse``.  The input half of the pre-activations does not
    depend on the state, so it is one matrix product per gate and sentence
    over all its steps; only the state's matrix-vector products stay in the
    step loop.  A step takes them for every running sentence with stacked
    ``np.matmul`` calls of the (H, H) maps (the update and reset maps in
    one) over (S, H, 1) states, which numpy runs as one matrix-vector
    product per map and sentence, and everything else is elementwise; so
    each sentence's values do not depend on its group and match those of
    the elementary ops to the last bits.  Every
    pre-activation is checked for non-finite values, because the saturating
    gates would otherwise hide an overflow.  The backward pass is
    backpropagation through time, stepped the same way.

    The record's inputs are, per sentence, its direction's nine tensors in
    field order and then its inputs, with the sentences last to first, so
    that each tensor receives the sentences' gradients in the order their
    own records, one per sentence in group order, would give them on a
    tape.  Each weight matrix's gradient is one deferred matrix product (an
    ``_Outer``) per sentence.
    """
    if isinstance(inputs, Tensor):
        return _gru_group(params, [inputs], reverse)[0]
    return _gru_group(params, list(inputs), reverse)


def _gru_group(params: GruParams, sentences: list[Tensor], reverse: bool) -> list[Tensor]:
    """``gru_sequence`` of a group of sentences, one record."""
    for inputs in sentences:
        if inputs.data.ndim != 2 or not inputs.shape[0]:
            raise ShapeError(f"gru_sequence: expected a nonempty (n, D) matrix of inputs, "
                             f"got shape {inputs.shape}")
    # fields, not astuple: astuple deep-copies, so gradients would land on copies
    weights = tuple(getattr(params, f.name) for f in fields(params))
    u_in, u_state, u_bias, r_in, r_state, r_bias, c_in, c_state, c_bias = (
        w.data for w in weights)
    hidden = u_bias.shape[0]
    for inputs in sentences:
        d_in = inputs.shape[1]
        if any(w.shape != shape for w, shape in zip(
                weights, [(hidden, d_in), (hidden, hidden), (hidden,)] * 3)):
            raise ShapeError(f"gru_sequence: weights {[w.shape for w in weights]} do not "
                             f"fit inputs of size {d_in}")
    # the packed layout: the sentences take slots longest first, and step k
    # (row k of a sentence, or row n - 1 - k if ``reverse``) of the a_k
    # sentences still running takes rows offsets[k]:offsets[k] + a_k, slot order
    lengths = [inputs.shape[0] for inputs in sentences]
    slots = sorted(range(len(sentences)), key=lambda i: -lengths[i])
    active = [sum(n > k for n in lengths) for k in range(max(lengths))]
    offsets = np.concatenate(([0], np.cumsum(active)))
    where = [None] * len(sentences)  # each sentence's packed rows, in input order
    for slot, i in enumerate(slots):
        rows = offsets[:lengths[i]] + slot
        where[i] = rows[::-1] if reverse else rows
    total = offsets[-1]
    # the input half of every pre-activation, per gate: one product per sentence
    given = np.empty((3, total, hidden))
    for i, inputs in enumerate(sentences):
        for gate, (w, b) in enumerate(((u_in, u_bias), (r_in, r_bias), (c_in, c_bias))):
            given[gate, where[i]] = inputs.data @ w.T + b
    # per packed row: the three pre-activations, the gates, the state the step
    # reads, the candidate and the state it writes
    pre, gates = np.empty((3, total, hidden)), np.empty((2, total, hidden))
    prev, fresh, states = (np.empty((total, hidden)) for _ in range(3))
    # the update and reset maps stacked: one matmul takes both gates' products
    ur_state = np.stack((u_state, r_state))[:, None]
    state = np.zeros((active[0], hidden))
    for k, count in enumerate(active):
        rows = slice(offsets[k], offsets[k] + count)
        state = state[:count]
        pre_ur, pre_c, gate = pre[:2, rows], pre[2, rows], gates[:, rows]
        np.matmul(ur_state, state[:, :, None], out=pre_ur[:, :, :, None])
        pre_ur += given[:2, rows]
        u, r = _logistic(pre_ur, out=gate)
        np.matmul(c_state, (r * state)[:, :, None], out=pre_c[:, :, None])
        pre_c += given[2, rows]
        f = np.tanh(pre_c, out=fresh[rows])
        prev[rows] = state
        state = (1.0 - u) * f + u * state
        states[rows] = state
    if not np.isfinite(pre).all():
        raise NonFiniteError("gru_sequence: pre-activation has non-finite values")
    update, reset = gates

    def grad_fn(grads):
        if len(sentences) == 1:
            grads = (grads,)
        g_out = np.zeros((total, hidden))
        for rows, g in zip(where, grads):
            if g is not None:
                g_out[rows] = g
        # the factors of the pre-activation gradients that need no carry
        d_u = (prev - fresh) * update * (1.0 - update)
        d_r = prev * reset * (1.0 - reset)
        d_c = (1.0 - update) * (1.0 - fresh * fresh)
        g_ur, g_c = np.empty((2, total, hidden)), np.empty((total, hidden))
        g_u, g_r = g_ur
        ur_state_t = ur_state.transpose(0, 1, 3, 2)
        carry = np.zeros((active[0], hidden))
        for k in reversed(range(len(active))):
            count = active[k]
            rows = slice(offsets[k], offsets[k] + count)
            g_s = g_out[rows] + carry[:count]
            np.multiply(g_s, d_u[rows], out=g_u[rows])
            np.multiply(g_s, d_c[rows], out=g_c[rows])
            g_reset_state = np.matmul(c_state.T, g_c[rows, :, None])[:, :, 0]
            np.multiply(g_reset_state, d_r[rows], out=g_r[rows])
            from_u, from_r = np.matmul(ur_state_t, g_ur[:, rows, :, None])[:, :, :, 0]
            carry[:count] = g_s * update[rows] + g_reset_state * reset[rows] + from_u + from_r
        out = []
        for i in reversed(range(len(sentences))):
            inputs, rows = sentences[i], where[i]
            if grads[i] is None:
                out += [None] * (len(weights) + 1)
                continue
            x_all, state_in = inputs.data, prev[rows]
            pres = g_u[rows], g_r[rows], g_c[rows]
            for g_pre, factor in zip(pres, (state_in, state_in, reset[rows] * state_in)):
                out += [_Outer(g_pre.T, x_all), _Outer(g_pre.T, factor), g_pre.sum(0)]
            out.append(pres[0] @ u_in + pres[1] @ r_in + pres[2] @ c_in
                       if inputs.requires_grad else None)
        return tuple(out)

    outs = _emit("gru_sequence",
                 tuple(t for inputs in reversed(sentences) for t in (*weights, inputs)),
                 tuple(states[rows] for rows in where), grad_fn)
    return list(outs)


def leaf_states(weight: Tensor, bias: Tensor, parts: list[Tensor]) -> list[NodeState]:
    """The affine map that ends a leaf transform, as one record; returns
    the n leaves' states.

    ``parts`` are (n, D_k) matrices; row i of the (n, 2H) result is
    ``weight @ [row i of every part] + bias`` with ``weight`` (2H, sum D_k)
    and ``bias`` (2H,), and its halves are leaf i's ``h`` and ``c``.  The
    record's outputs are every ``h``, then every ``c``.  One matrix product
    maps all n rows, so the values match those of ``concat``, ``matmul``,
    ``add`` and ``split`` to the last bits.  The backward pass hands back
    the weight's gradient as one deferred matrix product (an ``_Outer``)
    and takes one matrix product for the parts' gradients.
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
    return [NodeState(h, c) for h, c in zip(outs[:n], outs[n:])]


class TreeLstmCells:
    """The binary Tree-LSTM cell (Tai et al. 2015) over k child pairs, on
    arrays: the parents' ``h``, ``c`` and validity logits ``query . h``,
    and what ``backward`` needs besides the children's ``c``.

    Row j of ``pairs`` (k, 2H) is ``[h_left; h_right]`` of pair j and row j
    of ``mems`` (k, 2H) its ``[c_left; c_right]``.  ``weight`` is (5H, 2H)
    and ``bias`` (5H,), with gate blocks [candidate; input; forget-left;
    forget-right; output] applied to ``pairs``.  The parents' ``h`` and
    ``c`` (k, H) and logits (k,) are written into the arrays given, which
    ``induce_tree`` passes as the pairs' candidate rows.  The rows fall
    into ``segments``, slices of consecutive rows, one per sentence of the
    group (by default all k as one): one matrix product takes a segment's
    pre-activations and one more its logits, so a pair's values match
    those of the elementary ops to the last bits.  Those bits may depend on
    the segment's row count (BLAS does not round every row count alike),
    but not on the rows around it, because everything else is elementwise
    and runs once over all k rows.  Each gate is the logistic in its tanh form
    ``0.5 + 0.5 * tanh(x / 2)``, so one ``tanh`` over the halved gate blocks
    and the candidate block gives all five; it saturates to exactly 0 or 1
    and raises no floating-point error.  The pre-activation is checked for
    non-finite values, because the saturating gates would otherwise hide an
    overflow, and so are ``c`` and the logits.
    """

    __slots__ = ("query", "blocks", "tanh_c", "h", "c", "logits")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, query: np.ndarray,
                 pairs: np.ndarray, mems: np.ndarray, h: np.ndarray, c: np.ndarray,
                 logits: np.ndarray, segments: tuple[slice, ...] = (slice(None),)):
        k, hidden = h.shape
        self.query, self.h, self.c, self.logits = query, h, c, logits
        pre, weight_t = np.empty((k, 5 * hidden)), weight.T
        for rows in segments:
            np.matmul(pairs[rows], weight_t, out=pre[rows])
        pre += bias
        if not _all_finite(pre):
            raise NonFiniteError("tree_induction: pre-activation has non-finite values")
        # x -> tanh(x) on the candidate block and 0.5 + 0.5 * tanh(x / 2) on
        # the gate blocks, in place; halving is exact
        scale, shift = _gate_affine(hidden)
        pre *= scale
        np.tanh(pre, out=pre)
        pre *= scale
        pre += shift
        self.blocks = blocks = pre.reshape(k, 5, hidden)
        # c = (c_left * forget_left + c_right * forget_right) + candidate * input
        kept = mems.reshape(k, 2, hidden) * blocks[:, 2:4]
        np.add(kept[:, 0], kept[:, 1], out=c)
        c += blocks[:, 0] * blocks[:, 1]
        self.tanh_c = np.tanh(c)
        np.multiply(self.tanh_c, blocks[:, 4], out=h)
        for rows in segments:
            np.matmul(h[rows], query, out=logits[rows])
        if not (_all_finite(c) and _all_finite(logits)):
            raise NonFiniteError("tree_induction: produced non-finite values")

    def backward(self, g_h: np.ndarray, g_c: np.ndarray, g_logit: np.ndarray,
                 mems: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (k, 5H) pre-activation gradient and the gradients of
        ``c_left`` and ``c_right``, from the gradients of the parents' h, c
        and logits and the children's ``mems`` the cell was made with;
        ``g_h`` and ``g_c`` are updated in place.  The weight's
        gradient is ``g_pre.T @ pairs``, the bias's ``g_pre.sum(0)``, the
        query's ``g_logit @ h`` and that of ``[h_left; h_right]``
        ``g_pre @ weight``."""
        blocks, tanh_c = self.blocks, self.tanh_c
        candidate, gate_in, forget_l, forget_r, gate_out = blocks.transpose(1, 0, 2)
        k, hidden = g_h.shape
        g_h += g_logit[:, None] * self.query
        g_c += g_h * gate_out * (1.0 - tanh_c * tanh_c)
        # per block, the gradient of its activation times that activation's
        # slope: 1 - t^2 for the candidate t, g (1 - g) for a gate g
        g_pre = np.concatenate((g_c * gate_in, g_c * candidate, g_c * mems[:, :hidden],
                                g_c * mems[:, hidden:], g_h * tanh_c), axis=1)
        slope = blocks * (1.0 - blocks)
        slope[:, 0] = 1.0 - candidate * candidate
        g_pre *= slope.reshape(k, 5 * hidden)
        return g_pre, g_c * forget_l, g_c * forget_r


def _all_finite(x: np.ndarray) -> bool:
    # the ufunc's own reduce: ndarray.all goes through a Python wrapper
    return np.logical_and.reduce(np.isfinite(x), axis=None)


@lru_cache(maxsize=None)
def _gate_affine(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """The (5H,) scale and shift that turn the tanh of a cell's halved gate
    blocks into 0.5 + 0.5 * tanh and leave its candidate block as it is."""
    scale, shift = np.full((2, 5 * hidden), 0.5)
    scale[:hidden], shift[:hidden] = 1.0, 0.0
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def compose(pairs: np.ndarray, mems: np.ndarray, query: Tensor, params: CompositionParams,
            out: tuple[np.ndarray, np.ndarray, np.ndarray],
            segments: tuple[slice, ...] = (slice(None),)) -> TreeLstmCells:
    """Merge each pair of child states into a parent with the binary
    Tree-LSTM cell: row j of ``pairs`` (k, 2H) is ``[h_left; h_right]`` of
    pair j and row j of ``mems`` (k, 2H) its ``[c_left; c_right]``.
    Returns the ``TreeLstmCells`` holding the parents' ``h``, ``c`` and
    validity logits (dot products with ``query``) and what its
    ``backward`` needs.  The parents are written into ``out``, the arrays
    ``(h, c, logits)`` of shapes (k, H), (k, H) and (k,); ``segments`` are
    the row slices that take their matrix products apart (one per
    sentence).  ``induce_tree`` calls it once per sentence for its first
    layer, then once per layer for the pairs that touch the new nodes of
    every sentence still being induced.  ``out`` is the pairs' candidate
    rows, and the ``tree_induction`` record replays those cells' backward."""
    return TreeLstmCells(params.weight.data, params.bias.data, query.data, pairs, mems,
                         *out, segments)


def softmax_argmax(logits: np.ndarray) -> int:
    """The index ``int(stable_softmax(logits).argmax())`` gives, mostly
    without taking the softmax.

    The softmax is increasing, so its argmax is the logits' argmax, unless
    it rounds the largest probabilities to one value; its argmax is then
    the lowest of their indices.  That happens only to logits within a few
    units in the last place of 1 of the max, so the softmax is taken
    whenever another logit lies within 1e-14 of the max.
    """
    index = int(logits.argmax())
    if np.count_nonzero(logits >= logits[index] - 1e-14) > 1:
        return int(stable_softmax(logits).argmax())
    return index


def validity_scores(logits: np.ndarray, config: GumbelConfig) -> np.ndarray:
    """The scores ``st_gumbel_select`` picks from, given the candidates'
    validity logits: their softmax, which sums to one, in ``train`` and
    ``soft`` mode, and the logits themselves in ``infer`` mode, which only
    needs the softmax's argmax (``softmax_argmax`` takes it from them)."""
    if not len(logits):
        raise ShapeError("validity_scores: no candidates")
    return logits if config.mode == "infer" else stable_softmax(logits)


def gumbel_noise(count: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel draws -log(-log u), u clamped away from {0, 1}."""
    u = np.clip(rng.uniform(size=count), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_relaxation(probs: np.ndarray, noise: np.ndarray,
                      config: GumbelConfig) -> tuple[int, np.ndarray]:
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
        base = probs if config.perturb_probs else np.log(probs)
        logits = (base + noise) * (1.0 / config.temperature)
    if not np.isfinite(logits).all():
        raise NonFiniteError("gumbel_softmax: perturbed logits have non-finite values")
    return int(logits.argmax()), stable_softmax(logits)


def _gumbel_relaxation_grad(g: np.ndarray, relaxed: np.ndarray, probs: np.ndarray,
                            config: GumbelConfig) -> np.ndarray:
    """Gradient at ``probs`` of the relaxed weights of ``gumbel_relaxation``."""
    g_logits = _softmax_grad(relaxed, g) * (1.0 / config.temperature)
    return g_logits if config.perturb_probs else g_logits / probs


def st_gumbel_select(scores, config: GumbelConfig,
                     noise: np.ndarray | None = None) -> tuple[int, Tensor | np.ndarray | None]:
    """Pick one candidate from a probability vector, a tensor or (inside
    ``induce_tree``) an array of ``validity_scores``.

    Returns the chosen index and the selection weights.  Argmax ties
    resolve to the lowest index.  For a tensor the weights are a tensor: in
    ``train`` and ``soft`` mode one ``gumbel_softmax`` record whose value is
    the exact one-hot at ``gumbel_relaxation``'s index or its relaxed
    weights, and whose backward pass is the relaxation's gradient in both,
    so hard weights pass it straight through (Jang et al. 2017); a constant
    one-hot in ``infer`` mode.  For an array nothing is recorded, and the
    weights are the relaxation as an array in ``train`` and ``soft`` mode
    (``induce_tree``'s backward pass needs it in both) and ``None`` in
    ``infer`` mode, where the array holds the validity logits and the index
    is their softmax's argmax (``softmax_argmax``).  ``train`` and ``soft``
    mode perturb with ``noise``, one Gumbel draw per candidate
    (``gumbel_noise``), and raise ``ValueError`` without it.

    A tensor whose values are not a probability vector raises
    ``ValueError``.  An array is not checked: ``induce_tree`` passes what
    ``validity_scores`` has just returned.
    """
    probs = scores.data if isinstance(scores, Tensor) else scores
    k = len(probs)
    if isinstance(scores, Tensor) and (abs(float(probs.sum()) - 1.0) > 1e-6
                                       or (probs < 0).any()):
        raise ValueError("st_gumbel_select: scores are not a probability vector")
    if config.mode == "infer":
        if not isinstance(scores, Tensor):
            return softmax_argmax(scores), None
        index = int(probs.argmax())
        return index, Tensor(np.eye(k)[index])
    if noise is None:
        raise ValueError(f"st_gumbel_select: {config.mode} mode needs noise")
    if not isinstance(scores, Tensor):
        return gumbel_relaxation(probs, noise, config)
    _check_vector("gumbel_softmax", scores)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (k,):
        raise ShapeError(f"gumbel_softmax: noise of shape {noise.shape} for "
                         f"probabilities of shape {scores.shape}")
    index, relaxed = gumbel_relaxation(probs, noise, config)
    out = np.eye(k)[index] if config.mode == "train" else relaxed

    def grad_fn(g):
        return (_gumbel_relaxation_grad(g, relaxed, probs, config),)

    return index, _emit("gumbel_softmax", (scores,), out, grad_fn)


def induce_tree(leaves: list[NodeState] | list[list[NodeState]], params: CompositionParams,
                query: Tensor, config: GumbelConfig, rng=None, tokens=None):
    """Reduce a sentence to a single node, one merge per layer.

    At every layer all adjacent pairs are candidates: each is composed,
    scored, and one is selected to replace its pair.  In ``train`` and
    ``infer`` mode the new node is the chosen candidate; in ``soft`` mode
    it is the weighted sum of all candidates under the relaxed selection
    weights.  Returns the induced tree and all 2n - 1 node states (leaves
    first, then composed nodes in creation order).  ``train`` and ``soft``
    mode draw the sentence's Gumbel noise from the generator ``rng``, and
    raise ``ValueError`` naming it if it is None.

    ``leaves`` may instead be a group: a list of sentences' leaf lists,
    with ``tokens`` None or one entry per sentence and, in ``train`` and
    ``soft`` mode, ``rng`` one generator per sentence (``infer`` draws
    nothing and takes None); the result is then one (tree, nodes) per
    sentence, each bit for bit what the sentence gives alone.  One loop
    serves every mode and induces a group's trees in lockstep; a sentence
    alone is a group of one.

    The state lives in arrays.  Each sentence's n leaves and the nodes its
    merges make (merge t makes node n + t) take 2n - 1 consecutive rows of
    the group's node array (``h`` and ``c`` in one (2, rows, H) array).
    Every candidate ever composed has a row in the candidate arrays (``h``
    and ``c`` in one (2, rows, H) array, and validity logit), and a
    sentence's ``live`` holds the rows of its current candidates in
    sentence order.  Each sentence's first layer of n - 1 pairs is one
    ``compose`` call of its own.  After that, a layer selects one merge per
    sentence still being induced, each through its own ``validity_scores``
    and ``st_gumbel_select`` calls and writes its new node, gathers the at
    most two pairs that touch each new node with one ``take`` (nodes a, b,
    c as a, b, b, c), and composes them in one ``compose`` call with one
    segment per sentence, which writes the parents straight into their
    candidate rows.  So a merge costs O(1) Python work plus the arithmetic
    of its pairs.  The cell's matrix products run per sentence with the row
    counts of inducing it alone (the first layer's n - 1, then at most 2),
    and all the rest is elementwise; so each sentence's merges and node
    bits do not depend on its group.  In ``infer`` mode no softmax is taken
    unless a near tie needs it (``softmax_argmax``), and the merge is the
    same as the softmax's argmax.  A non-finite value in any sentence
    raises ``NonFiniteError`` at the first check, in this order, that sees
    one.

    ``infer`` records nothing and keeps no cells.  In ``train`` and ``soft``
    mode the composed nodes of the whole group are the outputs of one
    ``tree_induction`` record, whose backward pass replays the merges in
    reverse, layer by layer in lockstep: for each layer
    ``TreeLstmCells.backward`` of the pairs composed after it (one call for
    the group, with the matrix product per sentence), then per sentence the
    gradient of its merge (under ``train`` the weighted sum's gradient at
    the one-hot weights, which passes the relaxed gradient straight
    through), of the Gumbel relaxation (``_gumbel_relaxation_grad``) and of
    the validity softmax; the first layers' cells come last.  The record's
    inputs are, per sentence, ``weight``, ``bias``, ``query`` and its
    leaves' ``h`` and ``c``, with the sentences last to first: each
    parameter receives one gradient per sentence (the weight's a deferred
    matrix product over the sentence's candidates), in the order the
    sentences' own records, one per sentence in group order, would give
    them on a tape.  The Gumbel noise of all layers is one draw per
    sentence, which gives the same values and leaves its generator in the
    same state as one draw per layer; the sentences draw in group order.
    """
    if leaves and not isinstance(leaves[0], NodeState):
        count = len(leaves)
        if rng is None:
            rng = [None] * count
        elif isinstance(rng, np.random.Generator) or len(rng) != count:
            raise ValueError(f"induce_tree: a group of {count} sentences takes one "
                             f"generator per sentence")
        return _induce(leaves, params, query, config, list(rng),
                       tokens if tokens is not None else [None] * count)
    return _induce([leaves], params, query, config, [rng], [tokens])[0]


def _check_leaves(leaves: list[NodeState], params: CompositionParams, query: Tensor) -> None:
    """Raise ``ShapeError`` unless the leaves' ``h`` and ``c`` and the query
    are vectors of one size H that the cell's weights fit."""
    _check_same_vectors("tree_induction",
                        (query, *(leaf.h for leaf in leaves), *(leaf.c for leaf in leaves)))
    hidden = query.shape[0]
    weight, bias = params.weight, params.bias
    if weight.shape != (5 * hidden, 2 * hidden) or bias.shape != (5 * hidden,):
        raise ShapeError(f"tree_induction: weight {weight.shape} and bias {bias.shape} "
                         f"do not fit children of size {hidden}")


def _children(window: list[int]) -> list[int]:
    """The window's adjacent pairs as rows [left; right]: nodes a, b, c
    gather as a, b, b, c."""
    return [node for node in window for _ in (0, 1)][1:-1]


class _Lockstep:
    """One sentence of an induction: its position in the group, its size n,
    the group row of its first node, its Gumbel noise (None in ``infer``
    mode) and the offset of its next layer's noise, its current nodes and
    live candidate rows (both in sentence order), its merges so far and,
    when recording, the row of every candidate it composed and the node
    rows of its children (two per candidate), in creation order."""

    __slots__ = ("index", "n", "base", "noise", "offset", "nodes", "live", "merges", "rows",
                 "children")

    def __init__(self, index: int, n: int, base: int, noise: np.ndarray | None):
        self.index, self.n, self.base, self.noise, self.offset = index, n, base, noise, 0
        self.nodes = list(range(base, base + n))
        self.live: list[int] = []
        self.merges: list[int] = []
        self.rows: list[int] = []
        self.children: list[int] = []


def _induce(sentences: list[list[NodeState]], params: CompositionParams, query: Tensor,
            config: GumbelConfig, rngs: list, tokens: list) -> list[tuple[BinaryTree,
                                                                       list[NodeState]]]:
    """``induce_tree`` of a group of sentences, with one generator (or None)
    and one ``tokens`` entry per sentence; one (tree, nodes) per sentence."""
    hidden = query.shape[0]
    weight, bias = params.weight, params.bias
    soft, record = config.mode == "soft", config.mode != "infer"
    if record:
        for i, (leaves, rng) in enumerate(zip(sentences, rngs)):
            if rng is None and len(leaves) > 1:
                raise ValueError(f"induce_tree: {config.mode} mode draws Gumbel noise and "
                                 f"needs a generator (rng) for sentence {i}, which has none")
    induced: list = [None] * len(sentences)
    runs: list[_Lockstep] = []
    size = 0  # node rows of the group
    for i, leaves in enumerate(sentences):
        n = len(leaves)
        if n == 0:
            raise ShapeError("induce_tree: empty sentence")
        if n == 1:
            induced[i] = BinaryTree(1, (), tokens[i]), list(leaves)
            continue
        _check_leaves(leaves, params, query)
        # one draw per sentence: layer t's n - 1 - t values start at offset
        # (every layer its own, as if drawn per layer) or at 0 (one vector reused)
        noise = (gumbel_noise(n * (n - 1) // 2 if config.noise_per_layer else n - 1, rngs[i])
                 if record else None)
        runs.append(_Lockstep(i, n, size, noise))
        size += 2 * n - 1
    if not runs:
        return induced
    nodes_hc = np.empty((2, size, hidden))  # every node's h, then its c
    node_h, node_c = nodes_hc
    # a sentence's n - 1 first-layer pairs, then at most two per merge but the last
    cand_rows = sum(3 * run.n for run in runs)
    cands_hc = np.empty((2, cand_rows, hidden))
    cand_h, cand_c = cands_hc
    cand_logit = np.empty(cand_rows)
    count = 0  # candidate rows filled
    # kept when recording, per compose call (candidate rows, TreeLstmCells,
    # children, segments): the first layers' calls, and per layer its merges
    # (node, live rows, index, scores, relaxed) and the call after them, if any
    first_layer: list = []
    layers: list = []
    for run in runs:
        leaves = sentences[run.index]
        nodes_hc[:, run.base:run.base + run.n] = [[leaf.h.data for leaf in leaves],
                                                  [leaf.c.data for leaf in leaves]]
        rows = slice(count, count + run.n - 1)
        children = _children(run.nodes)
        pairs, mems = nodes_hc.take(children, 1).reshape(2, -1, 2 * hidden)
        cell = compose(pairs, mems, query, params,
                       out=(cand_h[rows], cand_c[rows], cand_logit[rows]))
        if record:
            first_layer.append((rows, cell, children, (slice(None),)))
            run.rows.extend(range(rows.start, rows.stop))
            run.children.extend(children)
        run.live = list(range(rows.start, rows.stop))
        count = rows.stop
    active = runs
    while active:
        # the pairs that touch the new nodes, and each sentence's rows of them
        children, segments, going_on, merges = [], [], [], []
        for run in active:
            logits = cand_logit.take(run.live)
            scores = validity_scores(logits, config)
            noise = run.noise
            if noise is not None:
                noise = noise[run.offset:run.offset + len(logits)]
                run.offset += len(logits) if config.noise_per_layer else 0
            index, relaxed = st_gumbel_select(scores, config, noise=noise)
            node = run.base + run.n + len(run.merges)
            if soft:
                node_h[node] = relaxed @ cand_h[run.live]
                node_c[node] = relaxed @ cand_c[run.live]
            else:
                nodes_hc[:, node] = cands_hc[:, run.live[index]]
            if record:
                merges.append((node, run.live[:], index, scores, relaxed))
            run.merges.append(index)
            run.nodes[index:index + 2] = [node]
            if len(run.nodes) == 1:
                continue
            slot = max(index - 1, 0)
            start = len(children) // 2
            new_children = _children(run.nodes[slot:index + 2])
            children += new_children
            segments.append(slice(start, len(children) // 2))
            new_rows = range(count + start, count + len(children) // 2)
            run.live[slot:index + 2] = new_rows
            if record:
                run.rows.extend(new_rows)
                run.children.extend(new_children)
            going_on.append(run)
        composed = None
        if going_on:
            rows = slice(count, count + len(children) // 2)
            pairs, mems = nodes_hc.take(children, 1).reshape(2, -1, 2 * hidden)
            cell = compose(pairs, mems, query, params,
                           out=(cand_h[rows], cand_c[rows], cand_logit[rows]),
                           segments=tuple(segments))
            if record:
                composed = (rows, cell, children, tuple(segments))
            count = rows.stop
        if record:
            layers.append((merges, composed))
        active = going_on
    # each sentence's composed nodes: its h rows, then its c rows
    made = [nodes_hc[:, run.base + run.n:run.base + 2 * run.n - 1] for run in runs]
    if not record:
        # constants, copies of candidates whose values compose has checked
        outs = [t for hs, cs in made
                for t in _emit("tree_induction", (), (*hs, *cs), None, views_of=())]
    else:
        def grad_fn(grads):
            g_node_h, g_node_c = np.zeros((2, size, hidden))
            at = 0  # the grads of a sentence's h, then of its c, sentence by sentence
            for run in runs:
                first, m = run.base + run.n, run.n - 1
                for j, g in enumerate(grads[at:at + 2 * m]):
                    if g is not None:
                        (g_node_h if j < m else g_node_c)[first + j % m] = g
                at += 2 * m
            g_cand_h, g_cand_c = np.zeros((2, count, hidden))
            g_cand_logit = np.zeros(count)
            # the pre-activation gradients, sentence by sentence: candidate
            # row r goes to row to_run[r] of g_pre
            to_run = np.empty(count, dtype=np.intp)
            to_run[np.concatenate([run.rows for run in runs])] = np.arange(count)
            g_pre = np.empty((count, 5 * hidden))

            def cell_backward(rows, cell, children, segments):
                mems = node_c.take(children, 0).reshape(-1, 2 * hidden)
                g_cell, g_mem_l, g_mem_r = cell.backward(g_cand_h[rows], g_cand_c[rows],
                                                         g_cand_logit[rows], mems)
                g_pairs = np.empty((len(g_cell), 2 * hidden))
                for part in segments:
                    np.matmul(g_cell[part], weight.data, out=g_pairs[part])
                lefts, rights = children[0::2], children[1::2]
                g_node_h[lefts] += g_pairs[:, :hidden]
                g_node_h[rights] += g_pairs[:, hidden:]
                g_node_c[lefts] += g_mem_l
                g_node_c[rights] += g_mem_r
                g_pre[to_run[rows]] = g_cell

            for merges, composed in reversed(layers):
                if composed is not None:
                    cell_backward(*composed)
                for node, live_rows, index, probs, relaxed in merges:
                    g_h, g_c = g_node_h[node], g_node_c[node]
                    if soft:
                        g_cand_h[live_rows] += relaxed[:, None] * g_h
                        g_cand_c[live_rows] += relaxed[:, None] * g_c
                    else:
                        g_cand_h[live_rows[index]] += g_h
                        g_cand_c[live_rows[index]] += g_c
                    g_weights = cand_h[live_rows] @ g_h + cand_c[live_rows] @ g_c
                    g_probs = _gumbel_relaxation_grad(g_weights, relaxed, probs, config)
                    g_cand_logit[live_rows] += _softmax_grad(probs, g_probs)
            for composed in first_layer:
                cell_backward(*composed)
            out, ends = [], np.cumsum([len(run.rows) for run in runs])
            for run, end in zip(reversed(runs), reversed(ends)):
                g_run = g_pre[end - len(run.rows):end]
                pairs = node_h.take(run.children, 0).reshape(-1, 2 * hidden)
                leaves = slice(run.base, run.base + run.n)
                out += [_Outer(g_run.T, pairs), g_run.sum(axis=0),
                        g_cand_logit.take(run.rows) @ cand_h.take(run.rows, 0),
                        *g_node_h[leaves], *g_node_c[leaves]]
            return tuple(out)

        inputs = tuple(t for run in reversed(runs)
                       for t in (weight, bias, query, *(leaf.h for leaf in sentences[run.index]),
                                 *(leaf.c for leaf in sentences[run.index])))
        outs = _emit("tree_induction", inputs,
                     tuple(t for hs, cs in made for t in (*hs, *cs)), grad_fn,
                     views_of=tuple(half for halves in made for half in halves))
    at = 0
    for run in runs:
        m = run.n - 1
        hs, cs = outs[at:at + m], outs[at + m:at + 2 * m]
        at += 2 * m
        induced[run.index] = (BinaryTree(run.n, tuple(run.merges), tokens[run.index]),
                              [*sentences[run.index], *(NodeState(h, c) for h, c in zip(hs, cs))])
    return induced


# ---------------------------------------------------------------------------
# Parameter factories
# ---------------------------------------------------------------------------

def init_composition_params(rng: np.random.Generator, hidden: int) -> CompositionParams:
    bias = np.zeros(5 * hidden)
    bias[2 * hidden: 4 * hidden] = 1.0  # forget gates start open
    return CompositionParams(glorot(rng, 5 * hidden, 2 * hidden),
                             Tensor(bias, requires_grad=True))


def init_query(rng: np.random.Generator, hidden: int) -> Tensor:
    s = np.sqrt(6.0 / (hidden + 1))
    return Tensor(rng.uniform(-s, s, size=hidden), requires_grad=True)


def init_leaf_affine(rng: np.random.Generator, d_word: int, hidden: int) -> LeafAffineParams:
    return LeafAffineParams(glorot(rng, 2 * hidden, d_word),
                            Tensor(np.zeros(2 * hidden), requires_grad=True))


def _init_gru(rng: np.random.Generator, d_word: int, hidden: int) -> GruParams:
    def bias():
        return Tensor(np.zeros(hidden), requires_grad=True)

    return GruParams(glorot(rng, hidden, d_word), glorot(rng, hidden, hidden), bias(),
                     glorot(rng, hidden, d_word), glorot(rng, hidden, hidden), bias(),
                     glorot(rng, hidden, d_word), glorot(rng, hidden, hidden), bias())


def init_leaf_rnn(rng: np.random.Generator, d_word: int, hidden: int) -> LeafRnnParams:
    return LeafRnnParams(_init_gru(rng, d_word, hidden),
                         _init_gru(rng, d_word, hidden),
                         glorot(rng, 2 * hidden, 2 * hidden),
                         Tensor(np.zeros(2 * hidden), requires_grad=True))
