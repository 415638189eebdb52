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

from .tensor import (Tensor, ShapeError, TreeInduction, TreeLstmCells, glorot, gru_sequence,
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
    ``query``), which ``TreeInduction`` records."""
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
    an array in ``train`` and ``soft`` mode (``TreeInduction`` needs it for
    the gradient in both) and ``None`` in ``infer`` mode.
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
    weights.  Each candidate and its validity logit are computed once: the
    first layer's n - 1 in one ``compose`` call, then the at most two pairs
    that touch each new node in one call per merge.  The state lives in the
    arrays of a ``TreeInduction``, so a merge costs O(1) Python work plus
    the arithmetic of its new pairs, and in ``train`` and ``soft`` mode the
    whole induction is one tape record whose backward pass passes the
    relaxed selection gradient straight through to the scores in ``train``
    mode.  ``infer`` records nothing.  Returns the induced tree and all
    2n - 1 node states (leaves first, then composed nodes in creation
    order).
    """
    n = len(leaves)
    if n == 0:
        raise ShapeError("induce_tree: empty sentence")
    if n == 1:
        return BinaryTree(1, (), tokens), list(leaves)
    presampled = None
    if config.mode != "infer" and not config.noise_per_layer:
        presampled = gumbel_noise(n - 1, rng)
    run = TreeInduction(params.weight, params.bias, query, [leaf.h for leaf in leaves],
                        [leaf.c for leaf in leaves], config.mode, config.temperature,
                        config.perturb_probs)
    merges: list[int] = []
    for _ in range(n - 1):
        run.add(compose(*run.pairs(), query, params))
        logits = run.logits()
        scores = validity_scores(logits)
        noise = presampled[:len(logits)] if presampled is not None else None
        index, relaxed = st_gumbel_select(scores, config, rng, noise=noise)
        run.merge(index, scores, relaxed)
        merges.append(index)
    hs, cs = run.finish()
    return (BinaryTree(n, tuple(merges), tokens),
            [*leaves, *(NodeState(h, c) for h, c in zip(hs, cs))])


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
