"""Bottom-up latent tree induction.

A sentence enters as per-word states, and at every layer all adjacent
pairs are composed by a binary Tree-LSTM cell, scored against a trainable
query vector, and one candidate is selected to replace its pair.  During
training the selection is a straight-through Gumbel draw: the forward
value is a hard one-hot over candidates while the backward pass sees the
gradient of the temperature-scaled softmax relaxation, so the scoring
parameters keep receiving signal.  n leaves always produce exactly
2n - 1 node states.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import (Tensor, ShapeError, TreeLstmCells, _Outer, _check_same_vectors, _emit,
                     _gumbel_relaxation_grad, _softmax_grad, glorot, gru_sequence,
                     gumbel_relaxation, gumbel_softmax, leaf_states, stable_softmax)
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

    @property
    def hidden(self) -> int:
        return self.weight.shape[0] // 5


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


def leaf_transform(words: Tensor, params, kind: str) -> list[NodeState]:
    """Turn a sentence's (n, D) word vectors into initial node states
    ("affine" or "rnn").  Either transform ends in one ``leaf_states``
    record, so the affine leaf records one op per sentence and the RNN leaf
    three."""
    if words.data.ndim != 2:
        raise ShapeError(f"leaf_transform: expected an (n, D) matrix, got shape {words.shape}")
    if not words.shape[0]:
        raise ShapeError("leaf_transform: empty sentence")
    if kind == "affine":
        return leaf_affine(words, params)
    if kind == "rnn":
        return leaf_rnn(words, params)
    raise ValueError(f"unknown leaf transform {kind!r}")


def _node_states(weight: Tensor, bias: Tensor, parts: list[Tensor]) -> list[NodeState]:
    hs, cs = leaf_states(weight, bias, parts)
    return [NodeState(h, c) for h, c in zip(hs, cs)]


def leaf_affine(words: Tensor, params: LeafAffineParams) -> list[NodeState]:
    return _node_states(params.weight, params.bias, [words])


def _gru_weights(params: GruParams) -> list[Tensor]:
    # fields, not astuple: astuple deep-copies, so gradients would land on copies
    return [getattr(params, f.name) for f in fields(params)]


def leaf_rnn(words: Tensor, params: LeafRnnParams) -> list[NodeState]:
    fwd = gru_sequence(_gru_weights(params.fwd), words)
    bwd = gru_sequence(_gru_weights(params.bwd), words, reverse=True)
    return _node_states(params.proj_weight, params.proj_bias, [fwd, bwd])


def compose(h_left: np.ndarray, h_right: np.ndarray, c_left: np.ndarray,
            c_right: np.ndarray, query: Tensor, params: CompositionParams) -> TreeLstmCells:
    """Merge each (left, right) pair of child states, row j of the (k, H)
    arrays, into a parent with the binary Tree-LSTM cell; returns the
    parents' ``h``, ``c`` and validity logits (dot products with
    ``query``), which ``induce_tree`` records."""
    return TreeLstmCells(params.weight.data, params.bias.data, query.data,
                         h_left, h_right, c_left, c_right)


def validity_scores(logits: np.ndarray) -> np.ndarray:
    """Softmax over the candidates' validity logits; sums to one."""
    if not len(logits):
        raise ShapeError("validity_scores: no candidates")
    return stable_softmax(logits)


def gumbel_noise(count: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel draws -log(-log u), u clamped away from {0, 1}."""
    u = np.clip(rng.uniform(size=count), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def st_gumbel_select(scores, config: GumbelConfig,
                     rng: np.random.Generator | None = None,
                     noise: np.ndarray | None = None) -> tuple[int, Tensor | np.ndarray | None]:
    """Pick one candidate from a probability vector, a tensor or (inside
    ``induce_tree``) an array.

    Returns the chosen index and the selection weights.  Argmax ties
    resolve to the lowest index.  For a tensor the weights are a tensor: a
    hard one-hot with straight-through gradients in ``train`` mode, the
    noisy softmax relaxation in ``soft`` mode, and a constant one-hot in
    ``infer`` mode; ``train`` and ``soft`` record one ``gumbel_softmax`` op.
    For an array nothing is recorded, and the weights are the relaxation as
    an array in ``train`` and ``soft`` mode (``induce_tree``'s backward pass
    needs it in both) and ``None`` in ``infer`` mode.
    """
    probs = scores.data if isinstance(scores, Tensor) else scores
    k = len(probs)
    if abs(float(probs.sum()) - 1.0) > 1e-6 or (probs < 0).any():
        raise ValueError("st_gumbel_select: scores are not a probability vector")
    if config.mode == "infer":
        index = int(probs.argmax())
        if not isinstance(scores, Tensor):
            return index, None
        hard = np.zeros(k)
        hard[index] = 1.0
        return index, Tensor(hard)
    if noise is None:
        noise = gumbel_noise(k, rng)
    if not isinstance(scores, Tensor):
        return gumbel_relaxation(probs, noise, config.temperature, config.perturb_probs)
    return gumbel_softmax(scores, noise, config.temperature, hard=config.mode == "train",
                          perturb_probs=config.perturb_probs)


def induce_tree(leaves: list[NodeState], params: CompositionParams, query: Tensor,
                config: GumbelConfig, rng: np.random.Generator | None = None,
                tokens=None) -> tuple[BinaryTree, list[NodeState]]:
    """Reduce a sentence to a single node, one merge per layer.

    At every layer all adjacent pairs are candidates: each is composed,
    scored, and one is selected to replace its pair.  In ``train`` and
    ``infer`` mode the new node is the chosen candidate; in ``soft`` mode
    it is the weighted sum of all candidates under the relaxed selection
    weights.  Returns the induced tree and all 2n - 1 node states (leaves
    first, then composed nodes in creation order).

    The state lives in arrays.  Leaf i is node i and the node made by merge
    t is node n + t; their ``h`` and ``c`` are rows of two (2n - 1, H)
    arrays.  Every candidate ever composed has a row in the candidate arrays
    (``h``, ``c`` and validity logit), and ``live`` holds the rows of the
    current candidates in sentence order.  The first layer's n - 1 pairs
    are composed in one ``compose`` call, then only the at most two pairs
    that touch each new node (the ``window`` of nodes, entering ``live`` at
    ``slot``), so a merge costs O(1) Python work plus their arithmetic.

    In ``train`` and ``soft`` mode the composed nodes are the outputs of one
    ``tree_induction`` record; ``infer`` records nothing.  Its backward pass
    replays the merges in reverse: for each merge the cell backward of the
    pairs composed after it, then the gradient of the merge (under ``train``
    the weighted sum's gradient at the one-hot weights, which passes the
    relaxed gradient straight through), of the Gumbel relaxation and of the
    validity softmax; the first layer's cells come last, as one batch.  The
    weight gradient is one deferred matrix product over all candidates.
    """
    n = len(leaves)
    if n == 0:
        raise ShapeError("induce_tree: empty sentence")
    if n == 1:
        return BinaryTree(1, (), tokens), list(leaves)
    leaf_h, leaf_c = [leaf.h for leaf in leaves], [leaf.c for leaf in leaves]
    _check_same_vectors("tree_induction", (query, *leaf_h, *leaf_c))
    hidden = query.shape[0]
    weight, bias = params.weight, params.bias
    if weight.shape != (5 * hidden, 2 * hidden) or bias.shape != (5 * hidden,):
        raise ShapeError(f"tree_induction: weight {weight.shape} and bias {bias.shape} "
                         f"do not fit children of size {hidden}")
    mode = config.mode
    presampled = None
    if mode != "infer" and not config.noise_per_layer:
        presampled = gumbel_noise(n - 1, rng)
    node_h, node_c = np.empty((2, 2 * n - 1, hidden))
    node_h[:n] = [t.data for t in leaf_h]
    node_c[:n] = [t.data for t in leaf_c]
    # n - 1 pairs of leaves, then at most two per merge but the last
    cand_h, cand_c = np.empty((2, 3 * n, hidden))
    cand_logit = np.empty(3 * n)
    count = 0  # candidate rows filled
    cells: list = []  # per compose call: (candidate rows, TreeLstmCells, lefts, rights)
    steps: list = []  # per merge: (live rows, index, probs, relaxed)
    nodes = list(range(n))  # the current nodes, in sentence order
    live: list[int] = []
    slot = 0
    window = nodes[:]
    merges: list[int] = []
    for t in range(n - 1):
        lefts, rights = window[:-1], window[1:]
        made = compose(node_h.take(lefts, 0), node_h.take(rights, 0), node_c.take(lefts, 0),
                       node_c.take(rights, 0), query, params)
        rows = slice(count, count + len(made.logits))
        cand_h[rows], cand_c[rows], cand_logit[rows] = made.h, made.c, made.logits
        live[slot:slot] = range(rows.start, rows.stop)
        cells.append((rows, made, lefts, rights))
        count = rows.stop
        logits = cand_logit.take(live)
        scores = validity_scores(logits)
        noise = presampled[:len(logits)] if presampled is not None else None
        index, relaxed = st_gumbel_select(scores, config, rng, noise=noise)
        if mode == "soft":
            node_h[n + t] = relaxed @ cand_h[live]
            node_c[n + t] = relaxed @ cand_c[live]
        else:
            node_h[n + t] = cand_h[live[index]]
            node_c[n + t] = cand_c[live[index]]
        if mode != "infer":
            steps.append((live[:], index, scores, relaxed))
        merges.append(index)
        nodes[index:index + 2] = [n + t]
        slot = max(index - 1, 0)
        del live[slot:index + 2]
        window = nodes[slot:index + 2]

    def grad_fn(grads):
        g_node_h, g_node_c = np.zeros((2, 2 * n - 1, hidden))
        for i, g in enumerate(grads):
            if g is not None:
                (g_node_h if i < n - 1 else g_node_c)[n + i % (n - 1)] = g
        g_cand_h, g_cand_c = np.zeros((2, count, hidden))
        g_cand_logit = np.zeros(count)

        def cell_backward(rows, made, lefts, rights):
            g_pre, g_mem_l, g_mem_r = made.backward(g_cand_h[rows], g_cand_c[rows],
                                                    g_cand_logit[rows])
            g_pairs = g_pre @ weight.data
            g_node_h[lefts] += g_pairs[:, :hidden]
            g_node_h[rights] += g_pairs[:, hidden:]
            g_node_c[lefts] += g_mem_l
            g_node_c[rights] += g_mem_r
            return g_pre

        g_pres = [None] * len(cells)
        for t in reversed(range(n - 1)):
            if t + 1 < len(cells):
                g_pres[t + 1] = cell_backward(*cells[t + 1])
            live_rows, index, probs, relaxed = steps[t]
            g_h, g_c = g_node_h[n + t], g_node_c[n + t]
            if mode == "soft":
                g_cand_h[live_rows] += relaxed[:, None] * g_h
                g_cand_c[live_rows] += relaxed[:, None] * g_c
            else:
                g_cand_h[live_rows[index]] += g_h
                g_cand_c[live_rows[index]] += g_c
            g_weights = cand_h[live_rows] @ g_h + cand_c[live_rows] @ g_c
            g_probs = _gumbel_relaxation_grad(g_weights, relaxed, probs, config.temperature,
                                              config.perturb_probs)
            g_cand_logit[live_rows] += _softmax_grad(probs, g_probs)
        g_pres[0] = cell_backward(*cells[0])
        g_pre = np.concatenate(g_pres)
        pairs = np.concatenate([made.pairs for _, made, _, _ in cells])
        return (_Outer(g_pre.T, pairs), g_pre.sum(axis=0),
                g_cand_logit @ cand_h[:count], *g_node_h[:n], *g_node_c[:n])

    hs, cs = node_h[n:], node_c[n:]
    # infer: the composed nodes are constants
    inputs = () if mode == "infer" else (weight, bias, query, *leaf_h, *leaf_c)
    outs = _emit("tree_induction", inputs, (*hs, *cs), grad_fn, views_of=(hs, cs))
    return (BinaryTree(n, tuple(merges), tokens),
            [*leaves, *(NodeState(h, c) for h, c in zip(outs[:n - 1], outs[n - 1:]))])


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
