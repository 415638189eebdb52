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

from dataclasses import dataclass

import numpy as np

from .tensor import (Tensor, ShapeError, add, concat, dot, glorot, log, matmul,
                     mul, narrow, sigmoid, softmax, st_onehot, sub, tanh,
                     weighted_sum)
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


def leaf_transform(word_vectors: list[Tensor], params, kind: str) -> list[NodeState]:
    """Turn word vectors into initial node states ("affine" or "rnn")."""
    if not word_vectors:
        raise ShapeError("leaf_transform: empty sentence")
    if kind == "affine":
        return leaf_affine(word_vectors, params)
    if kind == "rnn":
        return leaf_rnn(word_vectors, params)
    raise ValueError(f"unknown leaf transform {kind!r}")


def _split_state(packed: Tensor, hidden: int) -> NodeState:
    return NodeState(narrow(packed, 0, hidden), narrow(packed, hidden, hidden))


def leaf_affine(word_vectors: list[Tensor], params: LeafAffineParams) -> list[NodeState]:
    hidden = params.bias.shape[0] // 2
    states = []
    for x in word_vectors:
        packed = add(matmul(params.weight, x), params.bias)
        states.append(_split_state(packed, hidden))
    return states


def _gru_step(x: Tensor, state: Tensor, params: GruParams, hidden: int) -> Tensor:
    update = sigmoid(add(add(matmul(params.update_in, x),
                             matmul(params.update_state, state)), params.update_bias))
    reset = sigmoid(add(add(matmul(params.reset_in, x),
                            matmul(params.reset_state, state)), params.reset_bias))
    fresh = tanh(add(add(matmul(params.cand_in, x),
                         matmul(params.cand_state, mul(reset, state))), params.cand_bias))
    ones = Tensor(np.ones(hidden))
    return add(mul(sub(ones, update), fresh), mul(update, state))


def leaf_rnn(word_vectors: list[Tensor], params: LeafRnnParams) -> list[NodeState]:
    hidden = params.proj_bias.shape[0] // 2
    fwd, bwd = [], []
    state = Tensor(np.zeros(hidden))
    for x in word_vectors:
        state = _gru_step(x, state, params.fwd, hidden)
        fwd.append(state)
    state = Tensor(np.zeros(hidden))
    for x in reversed(word_vectors):
        state = _gru_step(x, state, params.bwd, hidden)
        bwd.append(state)
    bwd.reverse()
    states = []
    for f, b in zip(fwd, bwd):
        packed = add(matmul(params.proj_weight, concat([f, b])), params.proj_bias)
        states.append(_split_state(packed, hidden))
    return states


def compose(left: NodeState, right: NodeState, params: CompositionParams) -> NodeState:
    """Binary Tree-LSTM cell merging two child states into a parent."""
    hidden = params.hidden
    pre = add(matmul(params.weight, concat([left.h, right.h])), params.bias)
    candidate = tanh(narrow(pre, 0, hidden))
    gate_in = sigmoid(narrow(pre, hidden, hidden))
    forget_l = sigmoid(narrow(pre, 2 * hidden, hidden))
    forget_r = sigmoid(narrow(pre, 3 * hidden, hidden))
    gate_out = sigmoid(narrow(pre, 4 * hidden, hidden))
    c = add(mul(candidate, gate_in),
            add(mul(left.c, forget_l), mul(right.c, forget_r)))
    h = mul(tanh(c), gate_out)
    return NodeState(h, c)


def validity_scores(candidates: list[NodeState], query: Tensor) -> Tensor:
    """Softmax over query-vs-candidate dot products; sums to one."""
    if not candidates:
        raise ShapeError("validity_scores: no candidates")
    return softmax(concat([dot(query, cand.h) for cand in candidates]))


def gumbel_noise(count: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel draws -log(-log u), u clamped away from {0, 1}."""
    u = np.clip(rng.uniform(size=count), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def st_gumbel_select(scores: Tensor, config: GumbelConfig,
                     rng: np.random.Generator | None = None,
                     noise: np.ndarray | None = None) -> tuple[int, Tensor]:
    """Pick one candidate from a probability vector.

    Returns the chosen index and the selection-weight tensor: a hard
    one-hot with straight-through gradients in ``train`` mode, the noisy
    softmax relaxation in ``soft`` mode, and a constant one-hot in
    ``infer`` mode.  Argmax ties resolve to the lowest index.
    """
    k = scores.shape[0]
    if abs(float(np.sum(scores.data)) - 1.0) > 1e-6 or np.any(scores.data < 0):
        raise ValueError("st_gumbel_select: scores are not a probability vector")
    if config.mode == "infer":
        index = int(np.argmax(scores.data))
        hard = np.zeros(k)
        hard[index] = 1.0
        return index, Tensor(hard)
    if noise is None:
        noise = gumbel_noise(k, rng)
    base = scores if config.perturb_probs else log(scores)
    perturbed = add(base, Tensor(noise))
    logits = mul(perturbed, Tensor(np.full(k, 1.0 / config.temperature)))
    index = int(np.argmax(logits.data))
    relaxed = softmax(logits)
    if config.mode == "soft":
        return index, relaxed
    return index, st_onehot(relaxed, index)


def induce_tree(leaves: list[NodeState], params: CompositionParams, query: Tensor,
                config: GumbelConfig, rng: np.random.Generator | None = None,
                tokens=None) -> tuple[BinaryTree, list[NodeState]]:
    """Reduce a sentence to a single node, recording the merge at each layer.

    At every layer all adjacent pairs are composed, scored, and one is
    selected; the new node enters the graph as the selection-weighted sum
    over all candidates, so in train mode it equals the chosen candidate
    exactly while gradients still reach the scores.  Returns the induced
    tree and all 2n - 1 node states (leaves first, then composed nodes in
    creation order).
    """
    n = len(leaves)
    if n == 0:
        raise ShapeError("induce_tree: empty sentence")
    nodes = list(leaves)
    all_nodes = list(leaves)
    merges: list[int] = []
    presampled = None
    if config.mode != "infer" and not config.noise_per_layer and n > 1:
        presampled = gumbel_noise(n - 1, rng)
    # candidates[i] composes nodes[i] with nodes[i+1]; after a merge only
    # the pairs touching the new node change, the rest are reused as-is
    candidates = [compose(nodes[i], nodes[i + 1], params) for i in range(n - 1)]
    while len(nodes) > 1:
        scores = validity_scores(candidates, query)
        noise = presampled[: len(candidates)] if presampled is not None else None
        index, weights = st_gumbel_select(scores, config, rng, noise=noise)
        merged = NodeState(
            weighted_sum([cand.h for cand in candidates], weights),
            weighted_sum([cand.c for cand in candidates], weights))
        merges.append(index)
        nodes[index:index + 2] = [merged]
        all_nodes.append(merged)
        if len(nodes) > 1:
            fresh = []
            if index > 0:
                fresh.append(compose(nodes[index - 1], merged, params))
            if index < len(nodes) - 1:
                fresh.append(compose(merged, nodes[index + 1], params))
            candidates[max(index - 1, 0):index + 2] = fresh
    return BinaryTree(n, tuple(merges), tokens), all_nodes


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
