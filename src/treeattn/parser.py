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

from .tensor import (Tensor, ShapeError, add, concat, glorot, gru_sequence,
                     gumbel_softmax, matmul, scalar_softmax, select, split, take_row,
                     tree_lstm_cell, weighted_sum)
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


def leaf_affine(word_vectors: list[Tensor], params: LeafAffineParams) -> list[NodeState]:
    return [NodeState(*split(add(matmul(params.weight, x), params.bias), 2))
            for x in word_vectors]


def _gru_weights(params: GruParams) -> list[Tensor]:
    # fields, not astuple: astuple deep-copies, so gradients would land on copies
    return [getattr(params, f.name) for f in fields(params)]


def leaf_rnn(word_vectors: list[Tensor], params: LeafRnnParams) -> list[NodeState]:
    fwd = gru_sequence(_gru_weights(params.fwd), word_vectors)
    bwd = gru_sequence(_gru_weights(params.bwd), word_vectors, reverse=True)
    states = []
    for i in range(len(word_vectors)):
        both = concat([take_row(fwd, i), take_row(bwd, i)])
        packed = add(matmul(params.proj_weight, both), params.proj_bias)
        states.append(NodeState(*split(packed, 2)))
    return states


def compose(pairs: list[tuple[NodeState, NodeState]], query: Tensor,
            params: CompositionParams) -> tuple[list[NodeState], list[Tensor]]:
    """Merge each (left, right) pair of child states into a parent with the
    binary Tree-LSTM cell, in one tape record; returns the parents and
    their validity logits (dot products with ``query``)."""
    outs = tree_lstm_cell(params.weight, params.bias, query,
                          [left.h for left, _ in pairs], [right.h for _, right in pairs],
                          [left.c for left, _ in pairs], [right.c for _, right in pairs])
    return ([NodeState(outs[i], outs[i + 1]) for i in range(0, len(outs), 3)],
            list(outs[2::3]))


def validity_scores(logits: list[Tensor]) -> Tensor:
    """Softmax over the candidates' scalar validity logits, in one record;
    sums to one."""
    if not logits:
        raise ShapeError("validity_scores: no candidates")
    return scalar_softmax(logits)


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
    ``infer`` mode.  Argmax ties resolve to the lowest index.  ``train`` and
    ``soft`` record one ``gumbel_softmax`` op; ``infer`` records nothing.
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
    return gumbel_softmax(scores, noise, config.temperature, hard=config.mode == "train",
                          perturb_probs=config.perturb_probs)


def induce_tree(leaves: list[NodeState], params: CompositionParams, query: Tensor,
                config: GumbelConfig, rng: np.random.Generator | None = None,
                tokens=None) -> tuple[BinaryTree, list[NodeState]]:
    """Reduce a sentence to a single node, recording the merge at each layer.

    At every layer all adjacent pairs are composed, scored, and one is
    selected; the new node enters the graph as the selection-weighted sum
    over all candidates (a ``select`` of one candidate when the weights are
    one-hot), so in train mode it equals the chosen candidate exactly while
    gradients still reach the scores.  Each candidate and its validity
    logit are computed once: the first layer's n - 1 in one ``compose``
    call, then the at most two pairs that touch each new node in one call
    per merge.  Returns the induced tree and all 2n - 1 node states (leaves
    first, then composed nodes in creation order).
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
    # the pairs touching the new node change, the rest (and their logits)
    # are reused as-is
    candidates, logits = [], []
    if n > 1:
        candidates, logits = compose(list(zip(nodes, nodes[1:])), query, params)
    while len(nodes) > 1:
        scores = validity_scores(logits)
        noise = presampled[: len(candidates)] if presampled is not None else None
        index, weights = st_gumbel_select(scores, config, rng, noise=noise)
        hs, cs = [cand.h for cand in candidates], [cand.c for cand in candidates]
        if config.mode == "soft":
            merged = NodeState(weighted_sum(hs, weights), weighted_sum(cs, weights))
        else:  # exactly one-hot weights
            merged = NodeState(select(hs, weights, index), select(cs, weights, index))
        merges.append(index)
        nodes[index:index + 2] = [merged]
        all_nodes.append(merged)
        if len(nodes) > 1:
            pairs = []
            if index > 0:
                pairs.append((nodes[index - 1], merged))
            if index < len(nodes) - 1:
                pairs.append((merged, nodes[index + 1]))
            window = slice(max(index - 1, 0), index + 2)
            candidates[window], logits[window] = compose(pairs, query, params)
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
